package routing

import (
	"math/rand"

	"lambmesh/internal/mesh"
)

// ChooseRouteK picks a fault-free k-round route for any k >= 1: the vias
// ChooseVias picks, and the node path through them. Returns false if no
// fault-free route exists.
func ChooseRouteK(o *Oracle, orders MultiOrder, v, w mesh.Coord, rng *rand.Rand) (*Route, bool) {
	vias, ok := ChooseVias(o, orders, v, w, rng)
	if !ok {
		return nil, false
	}
	return &Route{Vias: vias, Path: PathK(o.Mesh(), orders, v, w, vias)}, true
}

// chooseViasDP picks the k-1 vias of a k-round route, k >= 3, by dynamic
// programming over rounds: cost_t(u) is the cheapest total hop count of a
// fault-free t-round prefix ending at u, and the intermediates are
// recovered by backtracking. Ties between predecessors are broken by lowest
// node index when rng is nil, else uniformly by reservoir sampling (the
// j-th tied predecessor replaces the kept one with probability 1/j). Cost
// is O(k N^2) reachability queries, so this complements the 2-round span
// fill for the multi-round configurations the simulator explores; the lamb
// algorithms themselves never route.
func chooseViasDP(o *Oracle, orders MultiOrder, v, w mesh.Coord, rng *rand.Rand) ([]mesh.Coord, bool) {
	k := orders.Rounds()
	m := o.Mesh()
	n := int(m.Nodes())
	const inf = int(^uint(0) >> 2)

	coords := make([]mesh.Coord, n)
	for i := 0; i < n; i++ {
		coords[i] = m.CoordOf(int64(i))
	}

	cost := make([][]int, k)   // cost[t][u]: best t+1-round... see below
	choice := make([][]int, k) // predecessor node index
	for t := range cost {
		cost[t] = make([]int, n)
		choice[t] = make([]int, n)
		for u := range cost[t] {
			cost[t][u] = inf
			choice[t][u] = -1
		}
	}
	// Round 1: direct pi_1 reachability from v.
	for u := 0; u < n; u++ {
		if o.ReachOne(orders[0], v, coords[u]) {
			cost[0][u] = m.Distance(v, coords[u])
			choice[0][u] = -2 // from the source
		}
	}
	for t := 1; t < k; t++ {
		for u := 0; u < n; u++ {
			ties := 0 // predecessors seen at the current cost[t][u]
			for p := 0; p < n; p++ {
				if cost[t-1][p] == inf {
					continue
				}
				if !o.ReachOne(orders[t], coords[p], coords[u]) {
					continue
				}
				c := cost[t-1][p] + m.Distance(coords[p], coords[u])
				switch {
				case c < cost[t][u]:
					cost[t][u], choice[t][u], ties = c, p, 1
				case c == cost[t][u] && rng != nil:
					if ties++; rng.Intn(ties) == 0 {
						choice[t][u] = p
					}
				}
			}
		}
	}
	dst := int(m.Index(w))
	if cost[k-1][dst] == inf {
		return nil, false
	}
	// Backtrack the k-1 intermediates.
	vias := make([]mesh.Coord, k-1)
	cur := dst
	for t := k - 1; t >= 1; t-- {
		cur = choice[t][cur]
		vias[t-1] = coords[cur].Clone()
	}
	return vias, true
}
