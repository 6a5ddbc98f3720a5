package core

import (
	"fmt"
	"sort"

	"lambmesh/internal/bitmat"
	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
	"lambmesh/internal/vcover"
)

// GenericProblem is the topology-agnostic lamb problem of Section 7: "all
// that is needed is a set of nodes and an efficiently computable 'simple
// reachability' relation". Nodes are dense integers 0..NumNodes-1; Reach
// gives 1-round reachability per round and must return false whenever
// either endpoint is faulty.
type GenericProblem struct {
	NumNodes int
	Rounds   int
	Faulty   func(v int) bool
	Reach    func(round, v, w int) bool
	// UniformRounds declares that Reach is identical for every round, so
	// the per-round structures are computed once.
	UniformRounds bool
}

// GenericResult is a lamb set over integer node ids.
type GenericResult struct {
	Lambs []int
	Stats Stats
}

// GenericLamb solves the lamb problem on an arbitrary topology by computing
// the exact SEC/DEC partitions from full reachability profiles (the
// worst-case fallback the paper describes in Section 7), then running the
// same bipartite WVC reduction as Lamb1. Cost is O(k N^2) reachability
// calls, so this suits moderate N — tori, hypercube variants, irregular
// networks — where the rectangular partition algorithm does not apply.
func GenericLamb(p *GenericProblem) (*GenericResult, error) {
	if p.NumNodes <= 0 {
		return nil, fmt.Errorf("core: generic problem needs nodes")
	}
	if p.Rounds <= 0 {
		return nil, fmt.Errorf("core: generic problem needs at least one round")
	}
	var good []int
	for v := 0; v < p.NumNodes; v++ {
		if !p.Faulty(v) {
			good = append(good, v)
		}
	}
	if len(good) == 0 {
		return &GenericResult{}, nil
	}

	type roundData struct {
		secOf, decOf   []int   // node -> class id (good nodes only; -1 otherwise)
		secRep, decRep []int   // class id -> representative node
		secMem, decMem [][]int // class id -> member nodes
		r              *bitmat.Matrix
	}
	buildRound := func(t int) *roundData {
		rd := &roundData{
			secOf: make([]int, p.NumNodes),
			decOf: make([]int, p.NumNodes),
		}
		for v := range rd.secOf {
			rd.secOf[v] = -1
			rd.decOf[v] = -1
		}
		// Group good nodes by source profile and by destination profile.
		secKey := make(map[string]int)
		decKey := make(map[string]int)
		srcProfile := make([]byte, len(good))
		dstProfile := make([][]byte, len(good))
		for gi := range good {
			dstProfile[gi] = make([]byte, len(good))
		}
		for gi, v := range good {
			for gj, w := range good {
				if p.Reach(t, v, w) {
					srcProfile[gj] = 1
				} else {
					srcProfile[gj] = 0
				}
				dstProfile[gj][gi] = srcProfile[gj]
			}
			key := string(srcProfile)
			id, ok := secKey[key]
			if !ok {
				id = len(rd.secRep)
				secKey[key] = id
				rd.secRep = append(rd.secRep, v)
				rd.secMem = append(rd.secMem, nil)
			}
			rd.secOf[v] = id
			rd.secMem[id] = append(rd.secMem[id], v)
		}
		for gj, w := range good {
			key := string(dstProfile[gj])
			id, ok := decKey[key]
			if !ok {
				id = len(rd.decRep)
				decKey[key] = id
				rd.decRep = append(rd.decRep, w)
				rd.decMem = append(rd.decMem, nil)
			}
			rd.decOf[w] = id
			rd.decMem[id] = append(rd.decMem[id], w)
		}
		rd.r = bitmat.New(len(rd.secRep), len(rd.decRep))
		for i, sv := range rd.secRep {
			for j, dw := range rd.decRep {
				if p.Reach(t, sv, dw) {
					rd.r.Set(i, j)
				}
			}
		}
		return rd
	}

	rounds := make([]*roundData, p.Rounds)
	for t := range rounds {
		if p.UniformRounds && t > 0 {
			rounds[t] = rounds[0]
			continue
		}
		rounds[t] = buildRound(t)
	}

	// R^(k) = R_1 I_1 R_2 ... I_{k-1} R_k, with I_t built from co-membership.
	chain := []*bitmat.Matrix{rounds[0].r}
	for t := 0; t < p.Rounds-1; t++ {
		im := bitmat.New(len(rounds[t].decRep), len(rounds[t+1].secRep))
		for _, v := range good {
			im.Set(rounds[t].decOf[v], rounds[t+1].secOf[v])
		}
		chain = append(chain, im, rounds[t+1].r)
	}
	var scratch [2]*bitmat.Matrix
	rk := bitmat.MulChainScratch(1, &scratch, chain...)

	first, last := rounds[0], rounds[p.Rounds-1]
	zr := rk.ZeroRows()
	zc := rk.ZeroCols()
	bg := &vcover.Bipartite{
		LeftWeight:  make([]int64, len(zr)),
		RightWeight: make([]int64, len(zc)),
		Edges:       make([][]int, len(zr)),
	}
	for ii, i := range zr {
		bg.LeftWeight[ii] = int64(len(first.secMem[i]))
		for jj, j := range zc {
			if !rk.Get(i, j) {
				bg.Edges[ii] = append(bg.Edges[ii], jj)
			}
		}
	}
	for jj, j := range zc {
		bg.RightWeight[jj] = int64(len(last.decMem[j]))
	}
	cover := vcover.SolveBipartite(bg)

	lambSet := make(map[int]struct{})
	for ii, i := range zr {
		if cover.Left[ii] {
			for _, v := range first.secMem[i] {
				lambSet[v] = struct{}{}
			}
		}
	}
	for jj, j := range zc {
		if cover.Right[jj] {
			for _, v := range last.decMem[j] {
				lambSet[v] = struct{}{}
			}
		}
	}
	out := &GenericResult{
		Stats: Stats{
			NumSES:      len(first.secRep),
			NumDES:      len(last.decRep),
			RelevantSES: len(zr),
			RelevantDES: len(zc),
			CoverWeight: cover.Weight,
		},
	}
	for v := range lambSet {
		out.Lambs = append(out.Lambs, v)
	}
	sort.Ints(out.Lambs)
	return out, nil
}

// TorusLamb runs the generic lamb algorithm on a torus (or any mesh) using
// the dimension-ordered routing oracle as the simple-reachability relation.
// This realizes the torus extension of Section 7. Cost O(k N^2 d log f).
func TorusLamb(f *mesh.FaultSet, orders routing.MultiOrder) (*Result, error) {
	m := f.Mesh()
	if err := orders.Validate(m.Dims()); err != nil {
		return nil, err
	}
	o := routing.NewOracle(f)
	n := int(m.Nodes())
	coords := make([]mesh.Coord, n)
	for v := 0; v < n; v++ {
		coords[v] = m.CoordOf(int64(v))
	}
	uniform := true
	for _, ord := range orders[1:] {
		if !ord.Equal(orders[0]) {
			uniform = false
		}
	}
	gp := &GenericProblem{
		NumNodes:      n,
		Rounds:        orders.Rounds(),
		UniformRounds: uniform,
		Faulty:        func(v int) bool { return f.NodeFaulty(coords[v]) },
		Reach: func(round, v, w int) bool {
			return o.ReachOne(orders[round], coords[v], coords[w])
		},
	}
	gr, err := GenericLamb(gp)
	if err != nil {
		return nil, err
	}
	st := gr.Stats
	st.Faults = f.Count()
	res := &Result{
		Mesh:    m,
		Orders:  orders,
		Stats:   st,
		lambIdx: make(map[int64]struct{}),
	}
	for _, v := range gr.Lambs {
		res.lambIdx[int64(v)] = struct{}{}
		res.Lambs = append(res.Lambs, coords[v])
	}
	return res, nil
}
