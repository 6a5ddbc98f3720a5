// Package lambmesh is a Go implementation of the fault-tolerant wormhole
// routing method of Ho & Stockmeyer, "A New Approach to Fault-Tolerant
// Wormhole Routing for Mesh-Connected Parallel Computers" (IPDPS 2002).
//
// Instead of routing around faults, the method sacrifices a few good nodes
// — "lambs" — that keep forwarding traffic but no longer send or receive.
// Lambs are chosen so that every remaining good node (a "survivor") can
// reach every other in k rounds of deterministic, deadlock-free
// dimension-ordered routing, using only k virtual channels (k = 2 in the
// Blue Gene setting that motivated the paper).
//
// Quick start:
//
//	m, _ := lambmesh.NewMesh(32, 32, 32)
//	faults := lambmesh.NewFaultSet(m)
//	faults.AddNode(lambmesh.C(9, 1, 4))
//	res, _ := lambmesh.FindLambSet(faults, lambmesh.TwoRoundXYZ())
//	fmt.Println(res.Lambs) // nodes to demote to pure routers
//
// The heavy lifting lives in the internal packages: internal/partition
// (SES/DES partitions), internal/reach (k-round reachability matrices),
// internal/vcover + internal/maxflow (weighted vertex cover), internal/core
// (the Lamb1/Lamb2 reductions), internal/wormhole (a flit-level network
// simulator), internal/faultring (the fault-ring baseline), and
// internal/analysis + internal/sim (the paper's bounds and every
// table/figure experiment). This package re-exports the public workflow.
package lambmesh

import (
	"io"
	"math/rand"

	"lambmesh/internal/core"
	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

// Core topology types.
type (
	// Mesh is a d-dimensional mesh, torus, or hypercube grid.
	Mesh = mesh.Mesh
	// Topology abstracts a network family (mesh, torus, hypercube, full
	// mesh) behind neighbor enumeration, channel indexing, canonical base
	// paths, and a serialization tag.
	Topology = mesh.Topology
	// FullMesh is the complete network K_N (every pair directly linked).
	FullMesh = mesh.FullMesh
	// Coord is a node position.
	Coord = mesh.Coord
	// Link is a directed link between neighboring nodes.
	Link = mesh.Link
	// FaultSet is a set of faulty nodes and directed links.
	FaultSet = mesh.FaultSet
)

// Routing types.
type (
	// Order is a 1-round dimension ordering (a permutation of dimensions).
	Order = routing.Order
	// MultiOrder is a k-round ordering, one Order per round.
	MultiOrder = routing.MultiOrder
	// Oracle answers fault-avoiding reachability queries.
	Oracle = routing.Oracle
	// Route is a fault-free k-round route with chosen intermediates.
	Route = routing.Route
)

// Lamb computation types.
type (
	// Result is a computed lamb set with statistics.
	Result = core.Result
	// Stats carries partition and cover sizes.
	Stats = core.Stats
	// Option customizes a computation (values, predetermined lambs).
	Option = core.Option
	// WVCMode selects the vertex-cover solver for the general reduction.
	WVCMode = core.WVCMode
	// GenericProblem is the topology-agnostic lamb problem of Section 7.
	GenericProblem = core.GenericProblem
	// GenericResult is its solution over integer node ids.
	GenericResult = core.GenericResult
	// Reconfigurer drives the roll-back/reconfigure loop of Section 1.
	Reconfigurer = core.Reconfigurer
	// Solver owns reusable scratch for repeated lamb computations.
	Solver = core.Solver
)

// WVC solver modes for FindLambSetGeneral.
const (
	ApproxWVC = core.ApproxWVC
	ExactWVC  = core.ExactWVC
)

// NewMesh returns the mesh M_d(widths...).
func NewMesh(widths ...int) (*Mesh, error) { return mesh.New(widths...) }

// NewTorus returns the torus with wrap-around links.
func NewTorus(widths ...int) (*Mesh, error) { return mesh.NewTorus(widths...) }

// NewCube returns M_d(n), all widths equal (a hypercube when n = 2).
func NewCube(d, n int) (*Mesh, error) { return mesh.NewCube(d, n) }

// NewHypercube returns the binary hypercube Q_d (widths all 2, serialized
// under the "hypercube" tag).
func NewHypercube(d int) (*Mesh, error) { return mesh.NewHypercube(d) }

// NewFullMesh returns the complete network K_n.
func NewFullMesh(n int) (*FullMesh, error) { return mesh.NewFullMesh(n) }

// TopologyNames lists the topology serialization tags ("mesh", "torus",
// "hypercube", "fullmesh") in CLI-flag order.
func TopologyNames() []string { return mesh.TopologyNames() }

// NewFaultSet returns an empty fault set for m.
func NewFaultSet(m *Mesh) *FaultSet { return mesh.NewFaultSet(m) }

// NewFaultSetOn returns an empty fault set living on any topology; link
// validation follows the topology's LinkHead.
func NewFaultSetOn(t Topology) *FaultSet { return mesh.NewFaultSetOn(t) }

// RandomNodeFaults draws count distinct random node faults.
func RandomNodeFaults(m *Mesh, count int, rng *rand.Rand) *FaultSet {
	return mesh.RandomNodeFaults(m, count, rng)
}

// C builds a coordinate: C(1,2,3).
func C(vs ...int) Coord { return mesh.C(vs...) }

// ParseCoord parses "x,y,z" or "(x,y,z)".
func ParseCoord(s string) (Coord, error) { return mesh.ParseCoord(s) }

// Ascending returns the e-cube ordering (0,1,...,d-1): XY in 2D, XYZ in 3D.
func Ascending(d int) Order { return routing.Ascending(d) }

// Uniform returns k rounds of the same ordering.
func Uniform(o Order, k int) MultiOrder { return routing.Uniform(o, k) }

// UniformAscending returns k rounds of the ascending ordering.
func UniformAscending(d, k int) MultiOrder { return routing.UniformAscending(d, k) }

// TwoRoundXY is the paper's 2D simulation configuration: XYXY.
func TwoRoundXY() MultiOrder { return routing.UniformAscending(2, 2) }

// TwoRoundXYZ is the paper's 3D configuration: XYZXYZ.
func TwoRoundXYZ() MultiOrder { return routing.UniformAscending(3, 2) }

// NewOracle indexes a fault set for O(d log f) reachability queries.
func NewOracle(f *FaultSet) *Oracle { return routing.NewOracle(f) }

// ChooseRoute picks a fault-free k-round route for any k >= 1, shortest
// first, ties broken by rng (nil for deterministic). k = 2 searches the
// vias on a minimal route first (Section 2.1); k >= 3 runs a dynamic
// program over rounds at O(k N^2) reachability checks.
func ChooseRoute(o *Oracle, orders MultiOrder, src, dst Coord, rng *rand.Rand) (*Route, bool) {
	return routing.ChooseRoute(o, orders, src, dst, rng)
}

// FindLambSet runs Lamb1 (Section 6.3.1): the production algorithm — exact
// bipartite WVC via min-cut, guaranteed within twice the minimum lamb set,
// in time O(k d^3 f^3 + |lambs|) independent of the mesh size. On a torus
// it covers the Section 7 profile classes instead, at O(k N^2); there
// WithValues and WithReachability are an error and predetermined lambs are
// unioned in without being discounted from the class weights.
func FindLambSet(f *FaultSet, orders MultiOrder, opts ...Option) (*Result, error) {
	return core.Lamb1(f, orders, opts...)
}

// NewSolver returns a reusable Solver: it owns the scratch memory of the
// whole lamb pipeline, so callers computing lamb sets repeatedly (per fault
// epoch, per trial) should hold one per goroutine and call its
// Lamb1/Lamb2/ExactLamb methods. Results are byte-identical to the one-shot
// functions; only the allocation behavior differs.
func NewSolver() *Solver { return core.NewSolver() }

// FindLambSetGeneral runs Lamb2 (Section 6.3.2): the general-graph
// reduction. With ExactWVC the result is a minimum lamb set (exponential
// worst case); with ApproxWVC a linear-time 2-approximation.
func FindLambSetGeneral(f *FaultSet, orders MultiOrder, mode WVCMode, opts ...Option) (*Result, error) {
	return core.Lamb2(f, orders, mode, opts...)
}

// FindOptimalLambSet returns a minimum-size lamb set (Corollary 6.10).
// Exponential worst-case time; use for small fault sets and validation.
func FindOptimalLambSet(f *FaultSet, orders MultiOrder, opts ...Option) (*Result, error) {
	return core.ExactLamb(f, orders, opts...)
}

// FindLambSetGeneric solves the lamb problem on an arbitrary finite
// topology from its 1-round reachability relation (Section 7). O(k N^2).
func FindLambSetGeneric(p *GenericProblem) (*GenericResult, error) {
	return core.GenericLamb(p)
}

// VerifyLambSet checks Definition 2.6 through the SES/DES algebra in time
// polynomial in the number of faults (on a torus, survivor pair by pair).
func VerifyLambSet(f *FaultSet, orders MultiOrder, lambs []Coord) error {
	return core.VerifyLambSet(f, orders, lambs)
}

// NewReconfigurer starts the roll-back/reconfigure loop (Section 1): fold
// in newly detected faults with AddFaults and get a fresh verified lamb set
// each generation. With keepLambs, lamb sets only grow (old lambs persist
// unless they fail outright). Each generation is one FindLambSet solve, so
// tori recompute at O(k N^2) per generation instead of the rectangular
// pipeline's fault-polynomial cost.
func NewReconfigurer(m *Mesh, orders MultiOrder, keepLambs bool) (*Reconfigurer, error) {
	return core.NewReconfigurer(m, orders, keepLambs)
}

// WriteFaults serializes a fault set in the line-oriented lambmesh fault
// format ("mesh 12x12" / "node 9,1" / "link 1,1 0 +1"). cmd/lambfind's
// -save writes it and its -load and cmd/lambd's -load read it, so fault
// configurations round-trip between diagnostics runs and the daemon.
func WriteFaults(w io.Writer, f *FaultSet) error { return mesh.WriteFaults(w, f) }

// ReadFaults parses the WriteFaults format, reconstructing the mesh and
// its fault set.
func ReadFaults(r io.Reader) (*FaultSet, error) { return mesh.ReadFaults(r) }

// WithValues, WithPredetermined, and WithReachability are the Section 7
// extensions; see internal/core for semantics.
func WithValues(values map[int64]int64) Option { return core.WithValues(values) }

// WithPredetermined forces the given good nodes into the lamb set.
func WithPredetermined(nodes []Coord) Option { return core.WithPredetermined(nodes) }

// WithReachability retains the SES/DES partitions and matrices on the
// Result for inspection.
func WithReachability() Option { return core.WithReachability() }

// WithWorkers bounds the worker pool the reachability kernels run on;
// n <= 0 (the default) means all CPUs. The lamb set is bit-identical for
// any worker count — the knob only trades wall-clock time for CPU share.
func WithWorkers(n int) Option { return core.WithWorkers(n) }
