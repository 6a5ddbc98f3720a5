package server

import (
	"fmt"
	"math/rand"
	"testing"

	"lambmesh/internal/classtable"
	"lambmesh/internal/mesh"
	"lambmesh/internal/reach"
	"lambmesh/internal/routing"
)

// Every published epoch's class table is built from the recompute's own
// Find-Reachability (generation 0 from one of its own). Replaying random
// node and link reports, each epoch's table must answer exactly like one
// built from a fresh reach.ComputeScratch on the epoch's fault snapshot:
// the same Stats and Classes, and the same Lookup on every survivor pair.
func TestEpochTableMatchesFreshReach(t *testing.T) {
	meshes := []*mesh.Mesh{mesh.MustNew(12, 12), mesh.MustNew(6, 6, 6)}
	for _, m := range meshes {
		d := m.Dims()
		orderSets := []routing.MultiOrder{
			routing.UniformAscending(d, 1),
			routing.UniformAscending(d, 2),
			{routing.Ascending(d), routing.Ascending(d).Reverse()},
		}
		for _, orders := range orderSets {
			for _, keep := range []bool{false, true} {
				t.Run(fmt.Sprintf("%v/%v/keep=%v", m, orders, keep), func(t *testing.T) {
					replayReports(t, m, orders, keep, 9)
				})
			}
		}
	}
}

// replayReports sends reports random fault reports to a fresh server, one
// at a time, and checks every published epoch's table against a fresh
// build.
func replayReports(t *testing.T, m *mesh.Mesh, orders routing.MultiOrder, keep bool, reports int) {
	s, err := New(Config{Mesh: m, Orders: orders, KeepLambs: keep, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(int64(m.Nodes()) + int64(orders.Rounds())))
	checkEpochTable(t, s.Epoch(), orders)
	for r := 1; r <= reports; r++ {
		var nodes []mesh.Coord
		for range 1 + rng.Intn(2) {
			nodes = append(nodes, m.CoordOf(rng.Int63n(m.Nodes())))
		}
		var links []mesh.Link
		if rng.Intn(2) == 0 {
			from := m.CoordOf(rng.Int63n(m.Nodes()))
			dim, dir := rng.Intn(m.Dims()), 1
			if from[dim] == m.Width(dim)-1 {
				dir = -1
			}
			links = append(links, mesh.Link{From: from, Dim: dim, Dir: dir})
		}
		if err := s.ReportFaults(nodes, links); err != nil {
			t.Fatal(err)
		}
		checkEpochTable(t, waitGeneration(t, s, uint64(r)), orders)
	}
}

func checkEpochTable(t *testing.T, e *Epoch, orders routing.MultiOrder) {
	t.Helper()
	rc, err := reach.ComputeScratch(e.Faults, orders, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := classtable.New(rc)
	if err != nil {
		t.Fatal(err)
	}
	got := e.Table
	if got == nil {
		t.Fatalf("generation %d: no table", e.Generation)
	}
	if got.Stats() != want.Stats() {
		t.Fatalf("generation %d: stats %+v, fresh %+v", e.Generation, got.Stats(), want.Stats())
	}
	gs, gd := got.Classes()
	ws, wd := want.Classes()
	if gs != ws || gd != wd {
		t.Fatalf("generation %d: classes (%d,%d), fresh (%d,%d)", e.Generation, gs, gd, ws, wd)
	}
	m := e.Faults.Mesh()
	var survivors []mesh.Coord
	m.ForEachNode(func(c mesh.Coord) {
		if !e.Faults.NodeFaulty(c) && !e.lambs.Has(c) {
			survivors = append(survivors, c.Clone())
		}
	})
	var qg, qw classtable.Scratch
	for _, src := range survivors {
		for _, dst := range survivors {
			a, b := got.Lookup(src, dst, &qg), want.Lookup(src, dst, &qw)
			if a.Found != b.Found || a.Code != b.Code || a.NVias != b.NVias ||
				a.Hops != b.Hops || a.Turns != b.Turns || (a.NVias == 1 && !a.Via.Equal(b.Via)) {
				t.Fatalf("generation %d %v->%v: table %+v, fresh %+v", e.Generation, src, dst, a, b)
			}
		}
	}
}
