package routing

import (
	"fmt"
	"math/rand"

	"lambmesh/internal/mesh"
)

// PathK materializes a k-round route as its full node sequence: the
// per-round pi_t-routes through the given intermediate nodes, starting at v
// and ending at w. vias must have length k-1 for a k-round ordering. On a
// torus each segment takes the minimal direction, ties toward +
// (SegmentDir). The route is returned whether or not it is fault-free; use
// Oracle.ReachOne to test validity. The result includes every node visited,
// once per visit (a node may repeat if rounds cross). All coordinates of
// the result share one backing array.
func PathK(m *mesh.Mesh, orders MultiOrder, v, w mesh.Coord, vias []mesh.Coord) []mesh.Coord {
	if len(vias) != len(orders)-1 {
		panic(fmt.Sprintf("routing: %d-round route needs %d intermediates, got %d",
			len(orders), len(orders)-1, len(vias)))
	}
	stop := func(t int) mesh.Coord {
		switch {
		case t == 0:
			return v
		case t == len(orders):
			return w
		}
		return vias[t-1]
	}
	hops := 0
	for t := range orders {
		hops += m.Distance(stop(t), stop(t+1))
	}
	d := len(v)
	back := make([]int, (hops+1)*d)
	start := mesh.Coord(back[:d:d])
	copy(start, v)
	path := append(make([]mesh.Coord, 0, hops+1), start)
	back = back[d:]
	for t, pi := range orders {
		// The round's start repeats the previous round's end, so only the
		// nodes after it are appended.
		path, back = appendSteps(path, back, m, pi, stop(t), stop(t+1))
	}
	return path
}

// appendSteps appends the nodes after v on the pi-route from v to w,
// carving each coordinate out of back, and returns the extended path and
// the unused rest of back.
func appendSteps(path []mesh.Coord, back []int, m *mesh.Mesh, pi Order, v, w mesh.Coord) ([]mesh.Coord, []int) {
	d := len(v)
	cur := v
	for _, dim := range pi {
		a, b := cur[dim], w[dim]
		if a == b {
			continue
		}
		n, dir := m.Width(dim), SegmentDir(m, dim, a, b)
		for x := a; x != b; {
			x += dir
			if x < 0 || x >= n {
				if !m.Torus() {
					panic(fmt.Sprintf("routing: route from %v to %v fell off %v", v, w, m))
				}
				x = mod(x, n)
			}
			next := mesh.Coord(back[:d:d])
			back = back[d:]
			copy(next, cur)
			next[dim] = x
			path = append(path, next)
			cur = next
		}
	}
	return path, back
}

func mod(x, n int) int { return ((x % n) + n) % n }

// SegmentDir returns the direction (+1 or -1) a dimension-ordered route
// moves along dim from coordinate a to coordinate b: the sign of the
// segment's displacement, toward b on a mesh and the minimal way round on a
// torus, ties toward +.
func SegmentDir(m *mesh.Mesh, dim, a, b int) int {
	if displacement(m, dim, a, b) < 0 {
		return -1
	}
	return 1
}

// CountTurns returns the number of times the path changes direction — the
// quantity the Blue Gene requirement (iv) of Section 1 asks to minimize. A
// 1-round dimension-ordered route has at most d-1 turns; a k-round route at
// most kd-1.
func CountTurns(path []mesh.Coord) int {
	turns := 0
	prevDim := -1
	for i := 1; i < len(path); i++ {
		dim := stepDim(path[i-1], path[i])
		if prevDim != -1 && dim != prevDim {
			turns++
		}
		prevDim = dim
	}
	return turns
}

// HopsTurns returns the length in links and the number of turns of the
// k-round route from v through vias to w: PathLen and CountTurns of PathK,
// walked from the stops alone, one segment per dimension and round,
// without building the path. vias holds the k-1 intermediates flat, d ints
// each, as AppendVias writes them. A segment's length is the size of its
// displacement, the minimal one on a torus; segments along one dimension
// on either side of a stop join without a turn, whichever way they go.
func HopsTurns(m *mesh.Mesh, orders MultiOrder, v, w mesh.Coord, vias []int) (hops, turns int) {
	runs, last := 0, -1
	d := len(v)
	from := []int(v)
	for t, pi := range orders {
		to := []int(w)
		if t < len(orders)-1 {
			to = vias[t*d : (t+1)*d]
		}
		// A round moves along each dimension once, so its segment along
		// dim runs from the previous stop's coordinate to the next one's.
		for _, dim := range pi {
			δ := displacement(m, dim, from[dim], to[dim])
			if δ == 0 {
				continue
			}
			hops += abs(δ)
			if dim != last {
				runs, last = runs+1, dim
			}
		}
		from = to
	}
	return hops, max(runs-1, 0)
}

// PathLen returns the number of hops (links traversed) in the path.
func PathLen(path []mesh.Coord) int { return len(path) - 1 }

func stepDim(a, b mesh.Coord) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// Route is a fault-free k-round route: the chosen intermediate nodes and the
// materialized node path.
type Route struct {
	Vias []mesh.Coord // k-1 intermediate nodes (round handoff points)
	Path []mesh.Coord // full node sequence from source to destination
}

// Hops returns the route length in links.
func (r *Route) Hops() int { return PathLen(r.Path) }

// Turns returns the number of direction changes on the route.
func (r *Route) Turns() int { return CountTurns(r.Path) }

// ChooseRoute picks a fault-free k-round route from v to w, for any
// k >= 1: the vias AppendVias picks, and the node path through them.
// Returns false if no fault-free route exists.
//
// For k = 2 it uses the heuristic the paper suggests (Section 2.1): among
// feasible intermediate nodes, choose one giving a shortest total route,
// breaking ties uniformly at random (rng may be nil for deterministic
// first-best; otherwise exactly one rng.Intn draws among the tied vias in
// node-index order). The search first tries only the intermediates on some
// minimal v→w route (the bounding box on a mesh, the minimal arcs on a
// torus): a feasible one there is strictly shorter than any via outside, so
// the tied set is the same as a scan of all N nodes would find. Each
// segment is tested against its line's clear run, computed once per line
// with O(log f) binary searches. The candidates are swept a row at a time,
// a row being those that differ only along dimension 0, as a mask of
// ⌈n₀/64⌉ words: a segment along dimension 0 clears the bits outside its
// run, one on a line fixed for the row keeps or empties the row, and only
// one on a line that moves along the row is tested bit by bit, for the bits
// still set. The search costs O(rows · (d² + ⌈n₀/64⌉) + bits · d + lines ·
// log f); the tie count is the sum of the rows' popcounts, and the via the
// pick-th set bit. Only when every minimal via is blocked does the same
// sweep run over all N nodes, keeping the bits of minimal total length.
//
// For k >= 3 the vias come from a dynamic program over rounds with the same
// policy, at O(k N²) reachability queries. Route choice serves lambd and
// traffic generation for the wormhole simulator, not the lamb algorithm
// (which never routes).
func ChooseRoute(o *Oracle, orders MultiOrder, v, w mesh.Coord, rng *rand.Rand) (*Route, bool) {
	vias, ok := AppendVias(nil, o, orders, v, w, rng)
	if !ok {
		return nil, false
	}
	return NewRoute(o.Mesh(), orders, v, w, vias), true
}

// NewRoute returns the k-round route from v through vias to w, the vias
// given flat as AppendVias writes them: each Route.Vias entry is a view of
// its d ints, and the path is PathK's.
func NewRoute(m *mesh.Mesh, orders MultiOrder, v, w mesh.Coord, vias []int) *Route {
	d := len(v)
	r := &Route{}
	for ; len(vias) > 0; vias = vias[d:] {
		r.Vias = append(r.Vias, mesh.Coord(vias[:d:d]))
	}
	r.Path = PathK(m, orders, v, w, r.Vias)
	return r
}
