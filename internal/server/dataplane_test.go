package server

import (
	"math/rand"
	"net"
	"strings"
	"testing"

	"lambmesh/internal/mesh"
	"lambmesh/internal/wire"
)

// TestWireBackendCompact drives the wire backend through both data planes
// (the class table at k = 2, the uncached oracle at k = 3, which gets fewer
// queries) and checks it against the full Route answers.
func TestWireBackendCompact(t *testing.T) {
	for _, plane := range []struct {
		name       string
		k, queries int
	}{{"classtable", 2, 1500}, {"oracle", 3, 150}} {
		t.Run(plane.name, func(t *testing.T) {
			s := newRoundsServer(t, plane.k, 8, 8)
			if err := s.ReportFaults([]mesh.Coord{mesh.C(3, 3), mesh.C(4, 5)}, nil); err != nil {
				t.Fatal(err)
			}
			waitGeneration(t, s, 1)
			b := s.WireBackend()
			if b.Dims() != 2 {
				t.Fatalf("dims = %d", b.Dims())
			}
			var ans wire.Answer
			rng := rand.New(rand.NewSource(2))
			for i := 0; i < plane.queries; i++ {
				src := mesh.C(rng.Intn(9)-1, rng.Intn(8)) // sometimes out of mesh
				dst := mesh.C(rng.Intn(8), rng.Intn(8))
				b.Query(src, dst, &ans)
				full := s.Route(src, dst)
				if full.Found != (ans.Code == wire.CodeFound) {
					t.Fatalf("%v->%v: compact code %d, full %+v", src, dst, ans.Code, full)
				}
				if !full.Found {
					switch {
					case strings.Contains(full.Reason, "src") && ans.Code != wire.CodeBadSrc:
						t.Fatalf("%v->%v: code %d for reason %q", src, dst, ans.Code, full.Reason)
					case strings.Contains(full.Reason, "no fault-free") && ans.Code != wire.CodeNoRoute:
						t.Fatalf("%v->%v: code %d for reason %q", src, dst, ans.Code, full.Reason)
					}
					continue
				}
				if ans.Hops != full.Route.Hops() || ans.Turns != full.Route.Turns() {
					t.Fatalf("%v->%v: compact %d/%d, full %d/%d",
						src, dst, ans.Hops, ans.Turns, full.Route.Hops(), full.Route.Turns())
				}
				if ans.NVias != len(full.Route.Vias) || len(ans.Via) != ans.NVias*2 {
					t.Fatalf("%v->%v: vias %d/%v vs %v", src, dst, ans.NVias, ans.Via, full.Route.Vias)
				}
				for vi, v := range full.Route.Vias {
					if ans.Via[vi*2] != v[0] || ans.Via[vi*2+1] != v[1] {
						t.Fatalf("%v->%v: via %d = %v, want %v", src, dst, vi, ans.Via, v)
					}
				}
			}
		})
	}
}

// TestWireEndToEnd serves the binary protocol on a real listener and
// queries it with the wire client, pipelined.
func TestWireEndToEnd(t *testing.T) {
	s := newTestServer(t, 8, 8)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go wire.Serve(l, s.WireBackend())

	c, err := wire.Dial(l.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var ans wire.Answer
	if err := c.Route([]int{0, 0}, []int{7, 7}, &ans); err != nil {
		t.Fatal(err)
	}
	if ans.Code != wire.CodeFound || ans.Hops != 14 || ans.NVias != 1 {
		t.Fatalf("corner route: %+v", ans)
	}

	// Pipelined batch: all answers arrive, in order.
	const depth = 64
	for i := 0; i < depth; i++ {
		if err := c.Send([]int{i % 8, 0}, []int{7, i % 8}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < depth; i++ {
		if err := c.Recv(&ans); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		want := (7 - i%8) + i%8
		if ans.Code != wire.CodeFound || ans.Hops != want {
			t.Fatalf("pipelined %d: %+v, want %d hops", i, ans, want)
		}
	}

	// Out-of-mesh coordinates answer codes, not errors.
	if err := c.Route([]int{200, 200}, []int{0, 0}, &ans); err != nil {
		t.Fatal(err)
	}
	if ans.Code != wire.CodeBadSrc {
		t.Fatalf("out-of-mesh: %+v", ans)
	}

	// A malformed frame (wrong dimensionality) draws an error and closes.
	if err := c.Route([]int{1, 2, 3}, []int{0, 0, 0}, &ans); err == nil {
		t.Fatal("3D request on a 2D mesh succeeded")
	}
}
