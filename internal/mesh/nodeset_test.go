package mesh

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestNodeSetMatchesBruteForce checks every NodeSet query against a scan of
// the whole mesh with a map of the listed nodes, on random 1-4-D meshes and
// tori: lists with repeats, members that are faulty, and empty lists.
func TestNodeSetMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		widths := make([]int, 1+rng.Intn(4))
		for i := range widths {
			widths[i] = 2 + rng.Intn(5)
		}
		build := New
		if trial%2 == 1 {
			build = NewTorus
		}
		m, err := build(widths...)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("trial %d %v", trial, m)
		n := m.Nodes()
		f := RandomNodeFaults(m, rng.Intn(int(n/2)+1), rng)
		var list []Coord
		if trial%5 != 0 { // every fifth list is empty
			for i := rng.Intn(int(n) + 1); i > 0; i-- {
				list = append(list, m.CoordOf(rng.Int63n(n)))
			}
			if len(list) > 0 { // a repeat, and a faulty member when there is a fault
				list = append(list, list[rng.Intn(len(list))].Clone())
				if faults := f.NodeFaults(); len(faults) > 0 {
					list = append(list, faults[rng.Intn(len(faults))].Clone())
				}
			}
			rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
		}
		s := NewNodeSet(m, list)

		member := map[int64]bool{}
		var distinct []int64
		firstRepeat := -1
		for i, c := range list {
			idx := m.Index(c)
			if member[idx] && firstRepeat < 0 {
				firstRepeat = i
			}
			if !member[idx] {
				distinct = append(distinct, idx)
			}
			member[idx] = true
		}
		slices.Sort(distinct)
		var survivors []int64
		m.ForEachNode(func(c Coord) {
			idx := m.Index(c)
			if s.Has(c) != member[idx] || s.HasIndex(idx) != member[idx] {
				t.Fatalf("%s: Has(%v) = %v, want %v", name, c, s.Has(c), member[idx])
			}
			survivor := !f.NodeFaulty(c) && !member[idx]
			if s.IsSurvivor(f, c) != survivor {
				t.Fatalf("%s: IsSurvivor(%v) = %v, want %v", name, c, !survivor, survivor)
			}
			if survivor {
				survivors = append(survivors, idx)
			}
		})
		outside := make(Coord, m.Dims())
		outside[0] = m.Width(0)
		if s.Has(outside) || s.IsSurvivor(f, outside) {
			t.Fatalf("%s: %v outside the mesh reported as a member or survivor", name, outside)
		}

		if s.Len() != len(distinct) {
			t.Fatalf("%s: Len = %d, want %d", name, s.Len(), len(distinct))
		}
		if got := indices(m, s.Coords()); !slices.Equal(got, distinct) {
			t.Fatalf("%s: Coords = %v, want %v", name, got, distinct)
		}
		var each []int64
		s.ForEach(func(c Coord) { each = append(each, m.Index(c)) })
		if !slices.Equal(each, distinct) {
			t.Fatalf("%s: ForEach = %v, want %v", name, each, distinct)
		}
		if got := indices(m, s.Survivors(f)); !slices.Equal(got, survivors) {
			t.Fatalf("%s: Survivors = %v, want %v", name, got, survivors)
		}
		if got := s.SurvivorCount(f); got != int64(len(survivors)) {
			t.Fatalf("%s: SurvivorCount = %d, want %d", name, got, len(survivors))
		}
		if got := s.FirstRepeat(list); got != firstRepeat {
			t.Fatalf("%s: FirstRepeat = %d, want %d", name, got, firstRepeat)
		}
	}
}

// TestNodeSetIndices: the index constructor gives the same set as the
// coordinate one, the empty list gives the nil set, and an index outside
// the mesh panics.
func TestNodeSetIndices(t *testing.T) {
	m := MustNew(3, 4)
	a := NewNodeSet(m, []Coord{C(2, 3), C(0, 0), C(2, 3)})
	b := NewNodeSetIndices(m, []int64{11, 0, 11, 0})
	if !slices.Equal(indices(m, a.Coords()), indices(m, b.Coords())) || a.Len() != 2 {
		t.Fatalf("sets differ: %v vs %v", a.Coords(), b.Coords())
	}
	if s := NewNodeSet(m, nil); s != nil || s.Len() != 0 || s.Has(C(0, 0)) || s.Coords() != nil {
		t.Fatalf("empty list gave %v", s)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("index 12 of a 12-node mesh did not panic")
		}
	}()
	NewNodeSetIndices(m, []int64{12})
}

func indices(m *Mesh, cs []Coord) []int64 {
	var out []int64
	for _, c := range cs {
		out = append(out, m.Index(c))
	}
	return out
}
