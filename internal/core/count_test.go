package core

import (
	"math/rand"
	"testing"

	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

// TestLamb1CountMatchesLamb1 pins the lamb count to the materialized result
// across randomized fault sets, mesh and torus shapes, and round counts,
// reusing one Solver throughout so scratch reuse is exercised too.
func TestLamb1CountMatchesLamb1(t *testing.T) {
	var grids []*mesh.Mesh
	for _, widths := range [][]int{{8, 8}, {6, 7, 5}, {16, 4}, {4, 4, 4}} {
		grids = append(grids, mesh.MustNew(widths...))
	}
	for _, widths := range [][]int{{6, 6}, {8, 5}, {4, 4, 4}} {
		tor, err := mesh.NewTorus(widths...)
		if err != nil {
			t.Fatal(err)
		}
		grids = append(grids, tor)
	}
	s := NewSolver()
	check := NewSolver()
	rng := rand.New(rand.NewSource(42))
	for _, m := range grids {
		widths := m.Widths()
		for trial := 0; trial < 25; trial++ {
			faults := 1 + rng.Intn(int(m.Nodes()/4))
			f := mesh.RandomNodeFaults(m, faults, rng)
			if rng.Intn(2) == 0 {
				mesh.RandomLinkFaults(f, rng.Intn(4), rng)
			}
			k := 1 + rng.Intn(3)
			orders := routing.UniformAscending(m.Dims(), k)
			st, n, err := s.Lamb1Count(f, orders, 1)
			if err != nil {
				t.Fatalf("Lamb1Count(%v, %d faults, k=%d): %v", widths, faults, k, err)
			}
			res, err := check.Lamb1(f, orders)
			if err != nil {
				t.Fatalf("Lamb1: %v", err)
			}
			if int(n) != res.NumLambs() {
				t.Fatalf("%v faults=%d k=%d: Lamb1Count=%d, Lamb1 NumLambs=%d", widths, faults, k, n, res.NumLambs())
			}
			if st != res.Stats {
				t.Fatalf("%v faults=%d k=%d: stats mismatch: count=%+v full=%+v", widths, faults, k, st, res.Stats)
			}
		}
	}
}

// TestLamb1CountNonUniform exercises the dedup path with distinct per-round
// orderings.
func TestLamb1CountNonUniform(t *testing.T) {
	m := mesh.MustNew(8, 8)
	rng := rand.New(rand.NewSource(7))
	s := NewSolver()
	orders := routing.MultiOrder{routing.Order{0, 1}, routing.Order{1, 0}, routing.Order{0, 1}}
	for trial := 0; trial < 10; trial++ {
		f := mesh.RandomNodeFaults(m, 1+rng.Intn(12), rng)
		_, n, err := s.Lamb1Count(f, orders, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Lamb1(f, orders)
		if err != nil {
			t.Fatal(err)
		}
		if int(n) != res.NumLambs() {
			t.Fatalf("trial %d: count=%d want %d", trial, n, res.NumLambs())
		}
	}
}
