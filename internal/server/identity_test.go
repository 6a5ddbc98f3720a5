package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
	"lambmesh/internal/wire"
)

// checkQueryIdentity asks s for src -> dst over HTTP (POST /v1/route
// through h) and over the wire backend, and requires both answers to equal
// the reference built from the live epoch: a rejection naming the first
// unusable endpoint, else routing.ChooseRouteK over an oracle on the
// epoch's fault set with a nil rng — its path, vias, hops and turns, or
// the no-route reason and code. The HTTP body must match byte for byte.
func checkQueryIdentity(t testing.TB, s *Server, h http.Handler, src, dst mesh.Coord) {
	t.Helper()
	e := s.Epoch()
	m := e.Faults.Mesh()
	unusable := func(role string, c mesh.Coord) string {
		switch {
		case !m.Contains(c):
			return fmt.Sprintf("%s %v outside mesh %v", role, c, m)
		case e.Faults.NodeFaulty(c):
			return fmt.Sprintf("%s %v is faulty", role, c)
		case slices.ContainsFunc(e.Lambs, c.Equal):
			return fmt.Sprintf("%s %v is a lamb (forwards only)", role, c)
		}
		return ""
	}
	strs := func(cs []mesh.Coord) []string {
		var out []string
		for _, c := range cs {
			out = append(out, c.String())
		}
		return out
	}
	want := RouteResponse{Src: src.String(), Dst: dst.String(), Generation: e.Generation}
	wantWire := wire.Answer{Gen: e.Generation}
	if want.Reason = unusable("src", src); want.Reason != "" {
		wantWire.Code = wire.CodeBadSrc
	} else if want.Reason = unusable("dst", dst); want.Reason != "" {
		wantWire.Code = wire.CodeBadDst
	} else if r, ok := routing.ChooseRouteK(routing.NewOracle(e.Faults), s.orders, src, dst, nil); !ok {
		want.Reason = fmt.Sprintf("no fault-free %d-round route from %v to %v", s.orders.Rounds(), src, dst)
		wantWire.Code = wire.CodeNoRoute
	} else {
		want.Found = true
		want.Vias, want.Path = strs(r.Vias), strs(r.Path)
		want.Hops, want.Turns = r.Hops(), r.Turns()
		wantWire.Code = wire.CodeFound
		wantWire.Hops, wantWire.Turns, wantWire.NVias = r.Hops(), r.Turns(), len(r.Vias)
		for _, v := range r.Vias {
			wantWire.Via = append(wantWire.Via, v...)
		}
	}

	wantBody, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	reqBody, err := json.Marshal(RouteRequest{Src: src.String(), Dst: dst.String()})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/route", bytes.NewReader(reqBody)))
	if got := strings.TrimSuffix(rec.Body.String(), "\n"); rec.Code != http.StatusOK || got != string(wantBody) {
		t.Fatalf("%v %v->%v over HTTP: status %d\n got %s\nwant %s", m, src, dst, rec.Code, got, wantBody)
	}

	var got wire.Answer
	s.WireBackend().Query(src, dst, &got)
	if got.Code != wantWire.Code || got.Gen != wantWire.Gen || got.Hops != wantWire.Hops ||
		got.Turns != wantWire.Turns || got.NVias != wantWire.NVias || !slices.Equal(got.Via, wantWire.Via) {
		t.Fatalf("%v %v->%v over wire:\n got %+v\nwant %+v", m, src, dst, got, wantWire)
	}
}

// identityConfig is one server configuration of the all-pairs identity
// test, with the faults reported after generation 0 is checked. Each fault
// set leaves at least one lamb, so lamb endpoints are exercised on both
// planes.
type identityConfig struct {
	name  string
	mesh  *mesh.Mesh
	k     int
	nodes []mesh.Coord
	links []mesh.Link
	table bool // whether epochs serve from the class table
}

func identityConfigs() []identityConfig {
	torus, err := mesh.NewTorus(6, 6)
	if err != nil {
		panic(err)
	}
	return []identityConfig{
		{
			name: "mesh-k1", mesh: mesh.MustNew(6, 6), k: 1, table: true,
			nodes: []mesh.Coord{mesh.C(2, 1), mesh.C(1, 3), mesh.C(4, 4)},
			links: []mesh.Link{{From: mesh.C(3, 2), Dim: 0, Dir: 1}},
		},
		{
			name: "mesh-k2", mesh: mesh.MustNew(6, 6), k: 2, table: true,
			nodes: []mesh.Coord{mesh.C(5, 1), mesh.C(4, 0), mesh.C(2, 3)},
			links: []mesh.Link{{From: mesh.C(1, 4), Dim: 1, Dir: 1}, {From: mesh.C(3, 3), Dim: 0, Dir: -1}},
		},
		{
			name: "mesh-k3", mesh: mesh.MustNew(5, 4), k: 3,
			nodes: []mesh.Coord{mesh.C(1, 0), mesh.C(2, 3), mesh.C(2, 2)},
			links: []mesh.Link{{From: mesh.C(4, 1), Dim: 1, Dir: 1}, {From: mesh.C(0, 1), Dim: 1, Dir: -1}},
		},
		{
			name: "torus-k2", mesh: torus, k: 2,
			nodes: []mesh.Coord{mesh.C(2, 2), mesh.C(1, 1), mesh.C(3, 1)},
			links: []mesh.Link{{From: mesh.C(5, 5), Dim: 1, Dir: 1}, {From: mesh.C(0, 3), Dim: 0, Dir: 1}},
		},
	}
}

// TestQueryCoreMatchesOracle is the server-level identity: on the
// class-table plane (mesh, k = 1 and 2) and the oracle plane (mesh with
// k = 3, torus with k = 2), at generation 0 and after a report of node and
// link faults, every (src, dst) — out-of-mesh, faulty and lamb endpoints
// included — gets the same answer over HTTP and over the wire as
// routing.ChooseRouteK on an oracle over the epoch's fault set.
func TestQueryCoreMatchesOracle(t *testing.T) {
	for _, cfg := range identityConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			s, err := New(Config{Mesh: cfg.mesh, Orders: routing.UniformAscending(cfg.mesh.Dims(), cfg.k), Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			h := s.Handler()
			var ends []mesh.Coord
			cfg.mesh.ForEachNode(func(c mesh.Coord) { ends = append(ends, c.Clone()) })
			for dim := range cfg.mesh.Dims() {
				lo, hi := make(mesh.Coord, cfg.mesh.Dims()), make(mesh.Coord, cfg.mesh.Dims())
				lo[dim], hi[dim] = -1, cfg.mesh.Width(dim)
				ends = append(ends, lo, hi)
			}
			checkAll := func() {
				for _, src := range ends {
					for _, dst := range ends {
						checkQueryIdentity(t, s, h, src, dst)
					}
				}
			}
			checkAll()
			if err := s.ReportFaults(cfg.nodes, cfg.links); err != nil {
				t.Fatal(err)
			}
			e := waitGeneration(t, s, 1)
			if (e.Table != nil) != cfg.table || (e.Oracle != nil) == cfg.table {
				t.Fatalf("class table present = %v, oracle present = %v, want exactly one (table: %v)", e.Table != nil, e.Oracle != nil, cfg.table)
			}
			if len(e.Lambs) == 0 {
				t.Fatal("the fault set left no lamb, so lamb endpoints go unchecked")
			}
			checkAll()
		})
	}
}

// TestQueryCounterIdentity sends a mixed stream — every pair twice, with
// out-of-mesh, faulty, routable and unroutable endpoints — over HTTP and
// over the wire protocol to a k = 2 server (class table) and a k = 3 server
// (oracle), and requires queries_total = routes_found_total +
// routes_rejected_total on /metrics.
func TestQueryCounterIdentity(t *testing.T) {
	for _, k := range []int{2, 3} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			m := mesh.MustNew(6, 6)
			f := mesh.NewFaultSet(m)
			f.AddNodes(mesh.C(1, 1), mesh.C(2, 1), mesh.C(1, 2), mesh.C(4, 3))
			s, err := New(Config{Mesh: m, Orders: routing.UniformAscending(2, k), InitialFaults: f})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
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

			const pairs = 60
			var ans wire.Answer
			for i := 0; i < pairs; i++ {
				// x = 6 is outside the mesh.
				src := []int{(i * 5) % 7, (i * 3) % 6}
				dst := []int{(i * 2) % 7, (i * 7) % 6}
				for range 2 {
					resp := postJSON(t, ts.URL+"/v1/route", RouteRequest{
						Src: mesh.Coord(src).String(), Dst: mesh.Coord(dst).String(),
					})
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if err := c.Route(src, dst, &ans); err != nil {
						t.Fatal(err)
					}
				}
			}

			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			page := string(raw)
			q := metricValue(t, page, "lambd_queries_total")
			found := metricValue(t, page, "lambd_routes_found_total")
			rejected := metricValue(t, page, "lambd_routes_rejected_total")
			if q != 4*pairs || found+rejected != q || found == 0 || rejected == 0 {
				t.Errorf("queries %v, found %v + rejected %v (want %d queries, found + rejected = queries, both > 0)",
					q, found, rejected, 4*pairs)
			}
		})
	}
}
