package core

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

	"lambmesh/internal/bitmat"
	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
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
// Lambs come in ascending node order.
func GenericLamb(p *GenericProblem) (*GenericResult, error) {
	s := NewSolver()
	rk, err := s.classReach(p, time.Now())
	if err != nil {
		return nil, err
	}
	out := &GenericResult{Stats: s.coverClasses(rk)}
	s.cls.forEachLamb(func(v int) { out.Lambs = append(out.Lambs, v) })
	return out, nil
}

// TorusLamb runs the class reduction of Section 7 on a torus or any mesh,
// with the dimension-ordered routing oracle as the simple-reachability
// relation: the path Solver.Lamb1 takes on tori by itself, on a throwaway
// Solver. On a mesh it is the explicit generic algorithm (lambfind -algo
// generic), an O(k N^2 d log f) alternative to the rectangular pipeline.
func TorusLamb(f *mesh.FaultSet, orders routing.MultiOrder) (*Result, error) {
	return NewSolver().classLamb1(f, orders, &defaultCfg)
}

// classLamb1 is Lamb1 on the class reduction: the lamb set is every node of
// a chosen class, plus the predetermined lambs.
func (s *Solver) classLamb1(f *mesh.FaultSet, orders routing.MultiOrder, cfg *config) (*Result, error) {
	start := time.Now()
	st, err := s.torusCover(f, orders, start)
	if err != nil {
		return nil, err
	}
	res := newResult(f.Mesh(), orders, cfg, st, nil, func(emit func(mesh.Coord)) {
		s.cls.forEachLamb(func(v int) { emit(s.cls.coords[v]) })
	})
	s.phases.close(start)
	return res, nil
}

// classScratch holds the buffers of the class reduction: the good nodes,
// one partition per round, the chain, the chosen classes, and the node
// coordinates of the torus path.
type classScratch struct {
	good   []int // good node ids, ascending
	rounds []classRound
	chain  []*bitmat.Matrix
	mul    bitmat.ChainScratch
	slots  []int
	// first and last are the rounds whose SECs and DECs the cover chose
	// from; secIn and decIn mark the chosen classes.
	first, last  *classRound
	secIn, decIn []bool
	coords       []mesh.Coord
	coordBuf     []int
	oracle       *routing.Oracle // the torus path's reachability relation
}

// classRound is one round's partitions: prof(i, j) says good node i reaches
// good node j in one round and dst is its transpose, so SECs are the
// distinct rows of prof and DECs the distinct rows of dst. r is R_t, SECs x
// DECs, and im is I_t, this round's DECs x the next round's SECs.
type classRound struct {
	prof, dst, r, im *bitmat.Matrix
	sec, dec         classes
}

// classes labels the rows of a bit matrix by content.
type classes struct {
	of   []int   // row -> class, numbered by first appearance
	rep  []int   // class -> its first row
	size []int64 // class -> row count
}

// group sets cl to the classes of m's rows. Each row is hashed a word at a
// time into slots, an open-addressed table of class ids (0 = empty), and
// compared word for word with the representative of each class it meets.
func (cl *classes) group(m *bitmat.Matrix, slots *[]int) {
	n := m.Rows()
	lg := bits.Len(uint(2 * n)) // 1<<lg > 2n slots
	*slots = growZero(*slots, 1<<lg)
	tab := *slots
	cl.of = grow(cl.of, n)
	cl.rep, cl.size = cl.rep[:0], cl.size[:0]
	for i := 0; i < n; i++ {
		row := m.Row(i)
		h := uint64(len(row))
		for _, w := range row {
			h = bits.RotateLeft64(h^w, 27) * 0x9E3779B97F4A7C15
		}
		j := int(h >> (64 - lg))
		c := tab[j] - 1
		for c >= 0 && !slices.Equal(m.Row(cl.rep[c]), row) {
			j = (j + 1) & (len(tab) - 1)
			c = tab[j] - 1
		}
		if c < 0 {
			c = len(cl.rep)
			tab[j] = c + 1
			cl.rep = append(cl.rep, i)
			cl.size = append(cl.size, 0)
		}
		cl.of[i] = c
		cl.size[c]++
	}
}

// torusCover runs the class reduction with f's routing oracle as the
// 1-round reachability relation (torusReach), then the cover.
func (s *Solver) torusCover(f *mesh.FaultSet, orders routing.MultiOrder, start time.Time) (Stats, error) {
	rk, err := s.torusReach(f, orders, start)
	if err != nil {
		return Stats{}, err
	}
	st := s.coverClasses(rk)
	st.Faults = f.Count()
	return st, nil
}

// torusReach runs classReach with f's routing oracle as the 1-round
// reachability relation, over the mesh's linear node indices. The oracle is
// the Solver's own, rebuilt in place for f.
func (s *Solver) torusReach(f *mesh.FaultSet, orders routing.MultiOrder, start time.Time) (*bitmat.Matrix, error) {
	m := f.Mesh()
	if err := orders.Validate(m.Dims()); err != nil {
		return nil, err
	}
	c := &s.cls
	if c.oracle == nil {
		c.oracle = routing.NewOracle(f)
	} else {
		c.oracle.Rebuild(f)
	}
	o := c.oracle
	n, d := int(m.Nodes()), m.Dims()
	c.coordBuf = grow(c.coordBuf, n*d)
	c.coords = grow(c.coords, n)
	for v := range c.coords {
		c.coords[v] = c.coordBuf[v*d : (v+1)*d : (v+1)*d]
		m.CoordInto(int64(v), c.coords[v])
	}
	return s.classReach(&GenericProblem{
		NumNodes:      n,
		Rounds:        orders.Rounds(),
		UniformRounds: !slices.ContainsFunc(orders, func(o routing.Order) bool { return !o.Equal(orders[0]) }),
		Faulty:        func(v int) bool { return f.NodeFaulty(c.coords[v]) },
		Reach: func(round, v, w int) bool {
			return o.ReachOne(orders[round], c.coords[v], c.coords[w])
		},
	}, start)
}

// coverClasses covers the zeros of classReach's R^(k) with class sizes as
// weights; a nil rk (no good node) chooses nothing. The chosen classes stay
// in s.cls until the Solver's next computation.
func (s *Solver) coverClasses(rk *bitmat.Matrix) Stats {
	if rk == nil {
		return Stats{}
	}
	c := &s.cls
	cover := s.coverZeros(rk,
		func(i int) int64 { return c.first.sec.size[i] },
		func(j int) int64 { return c.last.dec.size[j] })
	c.secIn = growZero(c.secIn, len(c.first.sec.rep))
	c.decIn = growZero(c.decIn, len(c.last.dec.rep))
	for ii, i := range s.zr {
		c.secIn[i] = cover.Left[ii]
	}
	for jj, j := range s.zc {
		c.decIn[j] = cover.Right[jj]
	}
	return Stats{
		NumSES:      len(c.first.sec.rep),
		NumDES:      len(c.last.dec.rep),
		RelevantSES: len(s.zr),
		RelevantDES: len(s.zc),
		CoverWeight: cover.Weight,
	}
}

// classReach is the class reduction up to the cover: group the good nodes
// into SECs and DECs by their full reachability profiles, one partition per
// round, and chain R^(k) = R_1 I_1 R_2 ... I_{k-1} R_k with I_t built from
// co-membership. It returns R^(k) over the first round's SECs (s.cls.first)
// x the last round's DECs (s.cls.last), or nil when no node is good; both
// stay valid until the Solver's next computation. The Partition and Reach
// phases are timed from start.
func (s *Solver) classReach(p *GenericProblem, start time.Time) (*bitmat.Matrix, error) {
	if p.NumNodes <= 0 || p.Rounds <= 0 {
		return nil, fmt.Errorf("core: generic problem needs nodes and at least one round")
	}
	c := &s.cls
	c.good = c.good[:0]
	for v := 0; v < p.NumNodes; v++ {
		if !p.Faulty(v) {
			c.good = append(c.good, v)
		}
	}
	s.phases = PhaseTimes{}
	if len(c.good) == 0 {
		return nil, nil
	}
	n := len(c.good)
	c.rounds = grow(c.rounds, p.Rounds)
	distinct := p.Rounds
	if p.UniformRounds {
		distinct = 1
	}
	round := func(t int) *classRound { return &c.rounds[min(t, distinct-1)] }

	for t := 0; t < distinct; t++ {
		rd := round(t)
		rd.prof, rd.dst = rd.prof.Reset(n, n), rd.dst.Reset(n, n)
		for i, v := range c.good {
			for j, w := range c.good {
				if p.Reach(t, v, w) {
					rd.prof.Set(i, j)
					rd.dst.Set(j, i)
				}
			}
		}
		rd.sec.group(rd.prof, &c.slots)
		rd.dec.group(rd.dst, &c.slots)
	}
	s.phases.Partition = time.Since(start)

	for t := 0; t < distinct; t++ {
		rd := round(t)
		rd.r = rd.r.Reset(len(rd.sec.rep), len(rd.dec.rep))
		for i, v := range rd.sec.rep {
			for j, w := range rd.dec.rep {
				if rd.prof.Get(v, w) {
					rd.r.Set(i, j)
				}
			}
		}
	}
	c.chain = append(c.chain[:0], round(0).r)
	for t := 0; t < p.Rounds-1; t++ {
		from, to := round(t), round(t+1)
		im := c.rounds[t].im.Reset(len(from.dec.rep), len(to.sec.rep))
		c.rounds[t].im = im
		for g := range c.good {
			im.Set(from.dec.of[g], to.sec.of[g])
		}
		c.chain = append(c.chain, im, to.r)
	}
	rk := bitmat.MulChainScratch(1, &c.mul, c.chain...)
	s.phases.Reach = time.Since(start) - s.phases.Partition
	c.first, c.last = round(0), round(p.Rounds-1)
	return rk, nil
}

// forEachLamb calls fn, in ascending order, on every good node whose
// first-round SEC or last-round DEC the last coverClasses chose.
func (c *classScratch) forEachLamb(fn func(v int)) {
	for g, v := range c.good {
		if c.secIn[c.first.sec.of[g]] || c.decIn[c.last.dec.of[g]] {
			fn(v)
		}
	}
}
