package campaign

import (
	"fmt"
	"math"

	"lambmesh/internal/mesh"
)

// Model selects what kind of component fails in a trial.
type Model int

const (
	ModelNode  Model = iota // node (router+PE) faults only
	ModelLink               // directed link faults only
	ModelMixed              // each fault is a node or a link with equal odds
)

func (m Model) String() string {
	switch m {
	case ModelNode:
		return "node"
	case ModelLink:
		return "link"
	case ModelMixed:
		return "mixed"
	}
	return fmt.Sprintf("model(%d)", int(m))
}

// ParseModel parses a -model flag value.
func ParseModel(s string) (Model, error) {
	switch s {
	case "node":
		return ModelNode, nil
	case "link":
		return ModelLink, nil
	case "mixed":
		return ModelMixed, nil
	}
	return 0, fmt.Errorf("campaign: unknown fault model %q (node, link, mixed)", s)
}

// Process selects how the per-trial fault count is drawn.
type Process int

const (
	// ProcFixed draws exactly Count faults every trial — the paper's own
	// simulation fault process (Section 8).
	ProcFixed Process = iota
	// ProcMTBF models exponential lifetimes: over a mission of T hours a
	// component with mean time between failures Theta fails with
	// p = 1 - exp(-T/Theta), independently; the trial's fault count is
	// Binomial(N, p).
	ProcMTBF
	// ProcWeibull models Weibull lifetimes with scale Eta and shape Beta:
	// p = 1 - exp(-(T/Eta)^Beta). Beta > 1 captures wear-out, Beta < 1
	// infant mortality; Beta = 1 reduces to ProcMTBF.
	ProcWeibull
)

func (p Process) String() string {
	switch p {
	case ProcFixed:
		return "fixed"
	case ProcMTBF:
		return "mtbf"
	case ProcWeibull:
		return "weibull"
	}
	return fmt.Sprintf("process(%d)", int(p))
}

// ProcSpec is one fault process of the campaign grid.
type ProcSpec struct {
	Proc Process `json:"proc"`
	// Count is the exact per-trial fault count (ProcFixed only).
	Count int `json:"count,omitempty"`
	// Mission is the mission length T in hours (ProcMTBF, ProcWeibull).
	Mission float64 `json:"mission,omitempty"`
	// Theta is the MTBF in hours (ProcMTBF).
	Theta float64 `json:"theta,omitempty"`
	// Eta and Beta are the Weibull scale (hours) and shape (ProcWeibull).
	Eta  float64 `json:"eta,omitempty"`
	Beta float64 `json:"beta,omitempty"`
}

func (ps ProcSpec) String() string {
	switch ps.Proc {
	case ProcFixed:
		return fmt.Sprintf("fixed(f=%d)", ps.Count)
	case ProcMTBF:
		return fmt.Sprintf("mtbf(T=%g,theta=%g)", ps.Mission, ps.Theta)
	case ProcWeibull:
		return fmt.Sprintf("weibull(T=%g,eta=%g,beta=%g)", ps.Mission, ps.Eta, ps.Beta)
	}
	return ps.Proc.String()
}

// FailProb returns the per-component failure probability over the mission.
func (ps ProcSpec) FailProb() (float64, error) {
	switch ps.Proc {
	case ProcFixed:
		return 0, fmt.Errorf("campaign: fixed process has no failure probability")
	case ProcMTBF:
		if ps.Theta <= 0 || ps.Mission < 0 {
			return 0, fmt.Errorf("campaign: mtbf needs theta > 0 and mission >= 0")
		}
		return 1 - math.Exp(-ps.Mission/ps.Theta), nil
	case ProcWeibull:
		if ps.Eta <= 0 || ps.Beta <= 0 || ps.Mission < 0 {
			return 0, fmt.Errorf("campaign: weibull needs eta, beta > 0 and mission >= 0")
		}
		return 1 - math.Exp(-math.Pow(ps.Mission/ps.Eta, ps.Beta)), nil
	}
	return 0, fmt.Errorf("campaign: unknown process %v", ps.Proc)
}

// sampler draws the per-trial fault count for one grid point in O(log n)
// with zero allocation: the Binomial(N, p) inverse CDF is precomputed once
// per point (the batch amortization), and each trial spends one uniform on
// a binary search of it.
type sampler struct {
	fixed int // ProcFixed: the constant count (cum/counts empty)
	// counts[i] is a fault count, cum[i] the CDF up to and including it.
	// Only the numerically relevant window around the mean is tabulated.
	counts []int
	cum    []float64
}

// maxTruncTail is the largest Binomial tail mass the maxCount cap may
// silently absorb — at most one trial in ten thousand draws the capped
// count instead of its true one, invisible next to Monte Carlo noise.
// Above it the capped draw would visibly diverge from the declared fault
// process, so newSampler rejects the spec instead.
const maxTruncTail = 1e-4

// newSampler builds the per-point sampler. n is the number of failure
// sites (nodes for ModelNode, directed links for ModelLink, their sum for
// ModelMixed); maxCount caps the draw so a trial can never exceed the
// drawable population. Specs whose mission failure probability puts more
// than maxTruncTail of the count distribution above the cap are rejected:
// truncating that much mass would simulate a different process than the
// one declared.
func newSampler(ps ProcSpec, n int64, maxCount int) (*sampler, error) {
	if ps.Proc == ProcFixed {
		if ps.Count < 0 || ps.Count > maxCount {
			return nil, fmt.Errorf("campaign: fixed fault count %d outside [0,%d]", ps.Count, maxCount)
		}
		return &sampler{fixed: ps.Count}, nil
	}
	p, err := ps.FailProb()
	if err != nil {
		return nil, err
	}
	s := &sampler{}
	if tail := s.tabulate(n, p, maxCount); tail > maxTruncTail {
		return nil, fmt.Errorf("campaign: %v puts %.3g of its fault-count mass above %d faults (half the %d drawable sites); capping there would misrepresent the declared process — lower the mission time or failure probability", ps, tail, maxCount, n)
	}
	return s, nil
}

// tabulate builds the inverse-CDF table of Binomial(n, p), truncated to
// counts with non-negligible mass (and to maxCount). Log-space recurrence
// keeps the probabilities from underflowing at large n. It returns the
// probability mass the maxCount cap cut off (the window truncation at
// mean+12σ is negligible by construction), which the last table entry
// absorbs.
func (s *sampler) tabulate(n int64, p float64, maxCount int) float64 {
	if p <= 0 || n == 0 {
		s.counts = append(s.counts, 0)
		s.cum = append(s.cum, 1)
		return 0
	}
	if p >= 1 {
		c := int(n)
		tail := 0.0
		if c > maxCount {
			c = maxCount
			tail = 1 // the whole point mass at n sits above the cap
		}
		s.counts = append(s.counts, c)
		s.cum = append(s.cum, 1)
		return tail
	}
	// log pmf(0) = n log(1-p); pmf(k+1)/pmf(k) = (n-k)/(k+1) * p/(1-p).
	logOdds := math.Log(p) - math.Log1p(-p)
	lp := float64(n) * math.Log1p(-p)
	mean := float64(n) * p
	sd := math.Sqrt(float64(n) * p * (1 - p))
	hi := int64(math.Ceil(mean + 12*sd + 8))
	if hi > n {
		hi = n
	}
	if hi > int64(maxCount) {
		hi = int64(maxCount)
	}
	total := 0.0
	for k := int64(0); k <= hi; k++ {
		pmf := math.Exp(lp)
		if pmf > 1e-18 || k == hi {
			total += pmf
			s.counts = append(s.counts, int(k))
			s.cum = append(s.cum, total)
		}
		lp += math.Log(float64(n-k)/float64(k+1)) + logOdds
	}
	// Normalize so the last entry absorbs the truncated tail exactly.
	for i := range s.cum {
		s.cum[i] /= total
	}
	s.cum[len(s.cum)-1] = 1
	tail := 1 - total
	if tail < 0 {
		tail = 0
	}
	return tail
}

// draw spends one uniform from r and returns the trial's fault count.
func (s *sampler) draw(r *rng) int {
	if len(s.cum) == 0 {
		return s.fixed
	}
	u := r.float64()
	lo, hi := 0, len(s.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return s.counts[lo]
}

// drawFaults fills f with count faults of the given model, using only r's
// deterministic stream and the caller's scratch coordinates. If the count
// exceeds what the mesh can still absorb — reachable only under ModelMixed,
// whose site population counts links that node faults kill as a side
// effect — the draw stops when the last node dies (the mesh is saturated:
// with every node faulty neither a node nor a link draw can ever succeed)
// instead of rejection-sampling forever; callers observe the placed count
// via f.Count(). All paths reuse f's backing storage (mesh.FaultSet.Reset
// contract), so the steady-state cost is allocation-free.
func drawFaults(m *mesh.Mesh, f *mesh.FaultSet, model Model, count int, r *rng, c, head mesh.Coord) {
	f.Reset()
	liveNodes := m.Nodes()
	for f.Count() < count {
		if liveNodes == 0 {
			return
		}
		kind := model
		if model == ModelMixed {
			if r.next()&1 == 0 {
				kind = ModelNode
			} else {
				kind = ModelLink
			}
		}
		if kind == ModelNode {
			m.CoordInto(r.intn(m.Nodes()), c)
			if f.NodeFaulty(c) {
				continue
			}
			f.AddNode(c)
			liveNodes--
			continue
		}
		// Link fault: a random tail, dimension, and direction; retry until
		// the head exists and neither endpoint is already node-faulty
		// (links incident to faulty nodes are implicitly dead).
		m.CoordInto(r.intn(m.Nodes()), c)
		dim := int(r.intn(int64(m.Dims())))
		dir := 1 - 2*int(r.intn(2))
		v := c[dim] + dir
		if v < 0 || v >= m.Width(dim) {
			if !m.Torus() {
				continue
			}
			w := m.Width(dim)
			v = ((v % w) + w) % w
		}
		copy(head, c)
		head[dim] = v
		if f.NodeFaulty(c) || f.NodeFaulty(head) {
			continue
		}
		l := mesh.Link{From: c, Dim: dim, Dir: dir}
		if f.LinkFaulty(l) {
			continue
		}
		f.AddLink(l)
	}
}
