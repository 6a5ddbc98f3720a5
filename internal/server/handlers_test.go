package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func startHTTP(t *testing.T, widths ...int) (*Server, *httptest.Server) {
	t.Helper()
	s := newTestServer(t, widths...)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return v
}

func TestHTTPRoute(t *testing.T) {
	_, ts := startHTTP(t, 8, 8)
	resp := postJSON(t, ts.URL+"/v1/route", RouteRequest{Src: "(0,0)", Dst: "(7,7)"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	rr := decode[RouteResponse](t, resp)
	if !rr.Found || rr.Hops != 14 || rr.Generation != 0 {
		t.Errorf("route response: %+v", rr)
	}
	if len(rr.Path) != 15 || rr.Path[0] != "(0,0)" || rr.Path[14] != "(7,7)" {
		t.Errorf("path: %v", rr.Path)
	}
	if len(rr.Vias) != 1 { // 2-round route has one handoff point
		t.Errorf("vias: %v", rr.Vias)
	}
}

func TestHTTPRouteBadRequests(t *testing.T) {
	s, ts := startHTTP(t, 8, 8)
	for _, body := range []string{`{`, `{"src":"nope","dst":"(0,0)"}`, `{"src":"(0,0)","dst":""}`} {
		resp, err := http.Post(ts.URL+"/v1/route", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		eb := decode[errorBody](t, resp)
		if resp.StatusCode != http.StatusBadRequest || eb.Error == "" {
			t.Errorf("body %q: status %d, error %q", body, resp.StatusCode, eb.Error)
		}
	}
	if got := s.Metrics().BadRequests.Load(); got != 3 {
		t.Errorf("bad requests = %d, want 3", got)
	}
	// Out-of-mesh endpoints parse, so they are a 200 with found=false.
	rr := decode[RouteResponse](t, postJSON(t, ts.URL+"/v1/route", RouteRequest{Src: "(9,9)", Dst: "(0,0)"}))
	if rr.Found || !strings.Contains(rr.Reason, "outside mesh") {
		t.Errorf("out-of-mesh: %+v", rr)
	}
}

func TestHTTPFaultsAndConfig(t *testing.T) {
	s, ts := startHTTP(t, 8, 8)
	resp := postJSON(t, ts.URL+"/v1/faults", FaultReport{
		Nodes: []string{"(3,3)"},
		Links: []LinkReport{{From: "(1,1)", Dim: 1, Dir: -1}},
	})
	ack := decode[FaultAck](t, resp)
	if resp.StatusCode != http.StatusAccepted || ack.Accepted != 2 || ack.Generation != 0 {
		t.Fatalf("ack: status %d, %+v", resp.StatusCode, ack)
	}
	waitGeneration(t, s, 1)

	cresp, err := http.Get(ts.URL + "/v1/config")
	if err != nil {
		t.Fatal(err)
	}
	cfg := decode[ConfigResponse](t, cresp)
	if cfg.Mesh != "8x8" || cfg.Torus || cfg.Generation != 1 {
		t.Errorf("config: %+v", cfg)
	}
	if len(cfg.NodeFaults) != 1 || cfg.NodeFaults[0] != "(3,3)" {
		t.Errorf("node faults: %v", cfg.NodeFaults)
	}
	if len(cfg.LinkFaults) != 1 || cfg.LinkFaults[0] != (LinkReport{From: "(1,1)", Dim: 1, Dir: -1}) {
		t.Errorf("link faults: %v", cfg.LinkFaults)
	}
	wantSurvivors := int64(64-1) - int64(len(cfg.Lambs))
	if cfg.Survivors != wantSurvivors {
		t.Errorf("survivors = %d, want %d", cfg.Survivors, wantSurvivors)
	}

	// Invalid reports come back as a 400 with a JSON error.
	resp = postJSON(t, ts.URL+"/v1/faults", FaultReport{Nodes: []string{"(42,42)"}})
	eb := decode[errorBody](t, resp)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(eb.Error, "outside mesh") {
		t.Errorf("invalid fault: status %d, %+v", resp.StatusCode, eb)
	}
}

func TestHTTPMetricsAndHealth(t *testing.T) {
	s, ts := startHTTP(t, 8, 8)
	decode[RouteResponse](t, postJSON(t, ts.URL+"/v1/route", RouteRequest{Src: "(0,0)", Dst: "(3,3)"}))
	decode[FaultAck](t, postJSON(t, ts.URL+"/v1/faults", FaultReport{Nodes: []string{"(5,5)"}}))
	waitGeneration(t, s, 1)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"lambd_queries_total 1",
		"lambd_routes_found_total 1",
		"lambd_fault_reports_total 1",
		"lambd_recomputes_total 1",
		"lambd_generation 1",
		"lambd_route_hops_bucket{le=\"8\"} 1",
		"lambd_route_hops_count 1",
		"lambd_epoch_age_seconds",
		"lambd_recompute_seconds_mean",
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("/metrics missing %q in:\n%s", want, page)
		}
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", hresp.StatusCode)
	}

	// expvar is mounted on the daemon's own mux, not DefaultServeMux.
	vresp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	vresp.Body.Close()
	if vresp.StatusCode != http.StatusOK {
		t.Errorf("/debug/vars status %d", vresp.StatusCode)
	}
}

// TestHTTPFaultsRejectBadLink posts link faults whose dimension or
// direction is out of range; each must draw a 400 (not a handler panic)
// and leave the generation where it was.
func TestHTTPFaultsRejectBadLink(t *testing.T) {
	s, ts := startHTTP(t, 8, 8)
	for _, tc := range []struct {
		name string
		link LinkReport
	}{
		{"dim=-1", LinkReport{From: "(1,1)", Dim: -1, Dir: 1}},
		{"dim=d", LinkReport{From: "(1,1)", Dim: 2, Dir: 1}},
		{"dir=0", LinkReport{From: "(1,1)", Dim: 0, Dir: 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v1/faults", FaultReport{Links: []LinkReport{tc.link}})
			eb := decode[errorBody](t, resp)
			if resp.StatusCode != http.StatusBadRequest || eb.Error == "" {
				t.Errorf("status %d, error %q", resp.StatusCode, eb.Error)
			}
		})
	}
	if got := s.Epoch().Generation; got != 0 {
		t.Errorf("rejected reports advanced generation to %d", got)
	}
	if got := s.Metrics().FaultReports.Load(); got != 0 {
		t.Errorf("fault reports = %d, want 0", got)
	}
}
