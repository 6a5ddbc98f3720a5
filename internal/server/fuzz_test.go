package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

// FuzzRouteHandler throws arbitrary bodies at POST /v1/route. The handler's
// contract: every request gets a JSON body and either 200 (well-formed
// query, routable or not) or 400 (malformed body or coordinates) — never a
// panic, a 5xx, or non-JSON output.
func FuzzRouteHandler(f *testing.F) {
	f.Add([]byte(`{"src":"(0,0)","dst":"(3,3)"}`))
	f.Add([]byte(`{"src":"0,0","dst":"7,7"}`))
	f.Add([]byte(`{"src":"(0,0)"}`))
	f.Add([]byte(`{"src":"(9,9,9)","dst":"(0,0)"}`))
	f.Add([]byte(`{"src":42,"dst":[]}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))

	srv, err := New(Config{
		Mesh:   mesh.MustNew(8, 8),
		Orders: routing.UniformAscending(2, 2),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	h := srv.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest("POST", "/v1/route", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 && rec.Code != 400 {
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("non-JSON response %q for body %q", rec.Body.String(), body)
		}
		if rec.Code == 200 {
			var resp RouteResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 body is not a RouteResponse: %v", err)
			}
		}
	})
}

// decodeQueryCase reads a 2- or 3-D mesh or torus with widths 2-6, k in
// {1, 2, 3} rounds with one permutation order per round, one query whose
// coordinates may fall one step outside the mesh, and then fault records
// of one op byte plus coordinate bytes. The op picks a node fault or a
// +/- link fault and the link's dimension; on a mesh a link pointing out
// of the mesh is flipped to point back in.
func decodeQueryCase(data []byte) (cfg Config, src, dst mesh.Coord, ok bool) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	if len(data) == 0 {
		return cfg, nil, nil, false
	}
	head := next()
	d, k, torus := 2+head%2, 1+(head>>1)%3, head&8 != 0
	widths := make([]int, d)
	for i := range widths {
		widths[i] = 2 + next()%5
	}
	build := mesh.New
	if torus {
		build = mesh.NewTorus
	}
	m, err := build(widths...)
	if err != nil {
		return cfg, nil, nil, false
	}
	orders := make(routing.MultiOrder, k)
	for r := range orders {
		pi := routing.Ascending(d)
		for i := d - 1; i > 0; i-- {
			j := next() % (i + 1)
			pi[i], pi[j] = pi[j], pi[i]
		}
		orders[r] = pi
	}
	src, dst = make(mesh.Coord, d), make(mesh.Coord, d)
	for _, c := range []mesh.Coord{src, dst} {
		for i := range c {
			c[i] = next()%(widths[i]+2) - 1
		}
	}
	f := mesh.NewFaultSet(m)
	const maxRecords = 12
	for rec := 0; rec < maxRecords && len(data) > 0; rec++ {
		op := next()
		c := make(mesh.Coord, d)
		for i := range c {
			c[i] = next() % widths[i]
		}
		if op%3 == 0 {
			f.AddNode(c)
			continue
		}
		dim, dir := (op>>2)%d, 1
		if op%3 == 2 {
			dir = -1
		}
		if !torus && (c[dim]+dir < 0 || c[dim]+dir >= widths[dim]) {
			dir = -dir
		}
		f.AddLink(mesh.Link{From: c, Dim: dim, Dir: dir})
	}
	return Config{Mesh: m, Orders: orders, InitialFaults: f, Workers: 1}, src, dst, true
}

// FuzzServerQuery builds a server on a decoded topology, ordering and
// fault set and checks one query with checkQueryIdentity: the HTTP and
// wire answers must equal routing.ChooseRouteK on the live epoch's oracle.
func FuzzServerQuery(f *testing.F) {
	// 2-D mesh, k = 2 (class table), node and link faults.
	f.Add([]byte{2, 3, 3, 0, 0, 1, 1, 5, 4, 0, 2, 2, 1, 3, 1, 6, 4, 4})
	// 2-D mesh, k = 3 (oracle plane), a corner query around two faults.
	f.Add([]byte{4, 3, 2, 0, 1, 0, 1, 1, 5, 4, 0, 1, 1, 0, 2, 2, 5, 3, 2})
	// 2-D torus, k = 2 (oracle plane), a node and a wrapping link fault.
	f.Add([]byte{8, 4, 4, 1, 0, 1, 6, 6, 2, 0, 2, 2, 1, 5, 0, 4, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, src, dst, ok := decodeQueryCase(data)
		if !ok {
			return
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("New(%v, %v, faults %v): %v", cfg.Mesh, cfg.Orders, cfg.InitialFaults, err)
		}
		defer s.Close()
		checkQueryIdentity(t, s, s.Handler(), src, dst)
	})
}
