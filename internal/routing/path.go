package routing

import (
	"fmt"
	"math/rand"

	"lambmesh/internal/mesh"
)

// Path materializes the unique pi-ordered route from v to w as the full node
// sequence, starting at v and ending at w. On a torus each segment takes the
// minimal direction, ties toward + (SegmentDir). The route is returned
// whether or not it is fault-free; use Oracle.ReachOne to test validity.
// All coordinates of the result share one backing array.
func Path(m *mesh.Mesh, pi Order, v, w mesh.Coord) []mesh.Coord {
	return PathK(m, MultiOrder{pi}, v, w, nil)
}

// PathK concatenates the per-round pi_t-routes through the given
// intermediate nodes: vias must have length k-1 for a k-round ordering. The
// result includes every node visited, once per visit (a node may repeat if
// rounds cross). All coordinates of the result share one backing array.
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

// SegmentDir returns the direction (+1 or -1) a dimension-ordered route
// moves along dim from coordinate a to coordinate b: toward b on a mesh,
// and the minimal way round on a torus, ties toward +.
func SegmentDir(m *mesh.Mesh, dim, a, b int) int {
	if !m.Torus() {
		if b < a {
			return -1
		}
		return 1
	}
	n := m.Width(dim)
	if dpos := mod(b-a, n); dpos > n-dpos {
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

// ChooseRoute picks a fault-free k-round route from v to w, using the
// heuristic the paper suggests (Section 2.1): among feasible intermediate
// nodes, choose one giving a shortest total route, breaking ties uniformly
// at random (rng may be nil for deterministic first-best; otherwise exactly
// one rng.Intn draws among the tied vias in node-index order). Only k = 1
// and k = 2 are supported — the cases the paper simulates. Returns false if
// no fault-free route exists.
//
// For k = 2 the search first tries only the intermediates on some minimal
// v→w route (the bounding box on a mesh, the minimal arcs on a torus): a
// feasible one there is strictly shorter than any via outside, so the tied
// set is the same as a scan of all N nodes would find. That costs
// O(box · d log f). Only when every minimal via is blocked does it fall
// back to the O(N d log f) scan of every node. It serves traffic generation
// for the wormhole simulator, not the lamb algorithm (which never routes).
func ChooseRoute(o *Oracle, orders MultiOrder, v, w mesh.Coord, rng *rand.Rand) (*Route, bool) {
	m := o.Mesh()
	switch len(orders) {
	case 1:
		if !o.ReachOne(orders[0], v, w) {
			return nil, false
		}
		return &Route{Path: Path(m, orders[0], v, w)}, true
	case 2:
		if o.f.NodeFaulty(v) || o.f.NodeFaulty(w) {
			return nil, false // no via can join a faulty endpoint
		}
		var buf [64]int64
		best := minimalVias(o, orders, v, w, buf[:0])
		if len(best) == 0 {
			best = shortestVias(o, orders, v, w, best)
		}
		if len(best) == 0 {
			return nil, false
		}
		pick := 0
		if rng != nil {
			pick = rng.Intn(len(best))
		}
		vias := []mesh.Coord{m.CoordOf(best[pick])}
		return &Route{Vias: vias, Path: PathK(m, orders, v, w, vias)}, true
	default:
		panic(fmt.Sprintf("routing: ChooseRoute supports 1 or 2 rounds, got %d", len(orders)))
	}
}

// feasibleVia reports whether u joins a fault-free pi_1-route from v to a
// fault-free pi_2-route to w.
func (o *Oracle) feasibleVia(orders MultiOrder, v, u, w mesh.Coord) bool {
	return o.ReachOne(orders[0], v, u) && o.ReachOne(orders[1], u, w)
}

// minimalVias appends to best, in node-index order, the index of every
// feasible intermediate on a minimal v→w route. Per dimension those are the
// coordinates on a shortest arc from v to w: the closed interval between
// them on a mesh; on a torus the minimal arc, or the whole ring when both
// arcs have length n/2. Each dimension's set is kept as up to two ascending
// runs [lo0,hi0] ∪ [lo1,hi1] (hi1 = -1 when the second is empty) and walked
// like an odometer, dimension 0 fastest, which is ascending node-index
// order.
func minimalVias(o *Oracle, orders MultiOrder, v, w mesh.Coord, best []int64) []int64 {
	m := o.Mesh()
	d := len(v)
	buf := make([]int, 5*d)
	u, lo0, hi0, lo1, hi1 := mesh.Coord(buf[:d]), buf[d:2*d], buf[2*d:3*d], buf[3*d:4*d], buf[4*d:]
	for j := range u {
		a, b := min(v[j], w[j]), max(v[j], w[j])
		lo0[j], hi0[j], lo1[j], hi1[j] = a, b, 0, -1
		if n := m.Width(j); m.Torus() {
			switch span := b - a; {
			case 2*span == n: // both arcs are minimal: the whole ring
				lo0[j], hi0[j] = 0, n-1
			case 2*span > n: // the minimal arc wraps: [0,a] ∪ [b,n-1]
				lo0[j], hi0[j], lo1[j], hi1[j] = 0, a, b, n-1
			}
		}
		u[j] = lo0[j]
	}
	for {
		if o.feasibleVia(orders, v, u, w) {
			best = append(best, m.Index(u))
		}
		j := 0
		for ; j < d; j++ {
			x := u[j]
			if x == hi0[j] && hi1[j] >= 0 {
				u[j] = lo1[j] // on to the second run
				break
			}
			if x != hi0[j] && x != hi1[j] {
				u[j]++
				break
			}
			u[j] = lo0[j] // this dimension wrapped: carry into the next
		}
		if j == d {
			return best
		}
	}
}

// shortestVias appends to best, in node-index order, the index of every
// feasible intermediate whose total route length is minimal over all N
// nodes: the fallback when no minimal v→w route has a feasible via.
func shortestVias(o *Oracle, orders MultiOrder, v, w mesh.Coord, best []int64) []int64 {
	m := o.Mesh()
	bestLen := -1
	m.ForEachNode(func(u mesh.Coord) {
		if !o.feasibleVia(orders, v, u, w) {
			return
		}
		l := m.Distance(v, u) + m.Distance(u, w)
		switch {
		case bestLen == -1 || l < bestLen:
			bestLen = l
			best = append(best[:0], m.Index(u))
		case l == bestLen:
			best = append(best, m.Index(u))
		}
	})
	return best
}
