package server

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"time"

	"lambmesh/internal/mesh"
)

// Wire types. Coordinates travel as the paper's "(x,y,z)" strings — the
// same syntax mesh.ParseCoord accepts and the fault-file format of
// internal/mesh/serialize.go uses — so CLI, fault files, and the HTTP API
// all speak one coordinate language.

// RouteRequest is the body of POST /v1/route.
type RouteRequest struct {
	Src string `json:"src"`
	Dst string `json:"dst"`
}

// RouteResponse answers a route query. A well-formed query always gets a
// 200 and one of these; Found=false carries the reason (faulty or lamb
// endpoint, or no fault-free route). Generation says which epoch answered.
type RouteResponse struct {
	Found      bool     `json:"found"`
	Src        string   `json:"src"`
	Dst        string   `json:"dst"`
	Vias       []string `json:"vias,omitempty"`
	Path       []string `json:"path,omitempty"`
	Hops       int      `json:"hops"`
	Turns      int      `json:"turns"`
	Reason     string   `json:"reason,omitempty"`
	Generation uint64   `json:"generation"`
}

// LinkReport names one directed link fault on the wire.
type LinkReport struct {
	From string `json:"from"`
	Dim  int    `json:"dim"`
	Dir  int    `json:"dir"`
}

// FaultReport is the body of POST /v1/faults.
type FaultReport struct {
	Nodes []string     `json:"nodes,omitempty"`
	Links []LinkReport `json:"links,omitempty"`
}

// FaultAck acknowledges an accepted fault report. The recompute is
// asynchronous: Generation is the epoch that was live at acceptance, so a
// client can poll /v1/config until generation exceeds it.
type FaultAck struct {
	Accepted   int    `json:"accepted"`
	Generation uint64 `json:"generation"`
}

// ConfigResponse is the body of GET /v1/config: the live epoch.
type ConfigResponse struct {
	Mesh            string       `json:"mesh"`
	Torus           bool         `json:"torus"`
	Orders          string       `json:"orders"`
	Generation      uint64       `json:"generation"`
	EpochAgeSeconds float64      `json:"epoch_age_seconds"`
	NodeFaults      []string     `json:"node_faults"`
	LinkFaults      []LinkReport `json:"link_faults"`
	Lambs           []string     `json:"lambs"`
	Survivors       int64        `json:"survivors"`
	LastError       string       `json:"last_error,omitempty"`
}

// errorBody is the JSON shape of every non-200 response.
type errorBody struct {
	Error string `json:"error"`
}

// Handler returns the server's HTTP API:
//
//	POST /v1/route   route query (RouteRequest -> RouteResponse)
//	POST /v1/faults  fault report (FaultReport -> FaultAck, 202)
//	GET  /v1/config  live epoch (ConfigResponse)
//	GET  /metrics    Prometheus-style text exposition
//	GET  /healthz    liveness probe
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/route", s.handleRoute)
	mux.HandleFunc("POST /v1/faults", s.handleFaults)
	mux.HandleFunc("GET /v1/config", s.handleConfig)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	// expvar's own handler hangs off http.DefaultServeMux, which this
	// daemon never serves; mount it here so /debug/vars works (the lambd
	// map appears once PublishExpvar has run).
	mux.Handle("GET /debug/vars", expvar.Handler())
	return mux
}

func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	var req RouteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.badRequest(w, fmt.Errorf("decoding body: %v", err))
		return
	}
	src, err := mesh.ParseCoord(req.Src)
	if err != nil {
		s.badRequest(w, fmt.Errorf("src: %v", err))
		return
	}
	dst, err := mesh.ParseCoord(req.Dst)
	if err != nil {
		s.badRequest(w, fmt.Errorf("dst: %v", err))
		return
	}
	ans := s.Route(src, dst)
	resp := RouteResponse{
		Found:      ans.Found,
		Src:        coordWire(src),
		Dst:        coordWire(dst),
		Reason:     ans.Reason,
		Generation: ans.Generation,
	}
	if ans.Found {
		resp.Vias = coordsWire(ans.Route.Vias)
		resp.Path = coordsWire(ans.Route.Path)
		resp.Hops = ans.Route.Hops()
		resp.Turns = ans.Route.Turns()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleFaults(w http.ResponseWriter, r *http.Request) {
	var req FaultReport
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.badRequest(w, fmt.Errorf("decoding body: %v", err))
		return
	}
	nodes := make([]mesh.Coord, 0, len(req.Nodes))
	for _, sc := range req.Nodes {
		c, err := mesh.ParseCoord(sc)
		if err != nil {
			s.badRequest(w, fmt.Errorf("node %q: %v", sc, err))
			return
		}
		nodes = append(nodes, c)
	}
	links := make([]mesh.Link, 0, len(req.Links))
	for _, lr := range req.Links {
		c, err := mesh.ParseCoord(lr.From)
		if err != nil {
			s.badRequest(w, fmt.Errorf("link tail %q: %v", lr.From, err))
			return
		}
		links = append(links, mesh.Link{From: c, Dim: lr.Dim, Dir: lr.Dir})
	}
	gen := s.Epoch().Generation
	if err := s.ReportFaults(nodes, links); err != nil {
		s.badRequest(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, FaultAck{
		Accepted:   len(nodes) + len(links),
		Generation: gen,
	})
}

func (s *Server) handleConfig(w http.ResponseWriter, r *http.Request) {
	e := s.Epoch()
	m := e.Faults.Mesh()
	resp := ConfigResponse{
		Mesh:            mesh.FormatWidths(m.Widths()), // the -mesh spelling
		Torus:           m.Torus(),
		Orders:          s.orders.String(),
		Generation:      e.Generation,
		EpochAgeSeconds: e.Age(time.Now()).Seconds(),
		NodeFaults:      coordsWire(e.Faults.SortedNodeFaults()),
		LinkFaults:      make([]LinkReport, 0, e.Faults.NumLinkFaults()),
		Lambs:           coordsWire(e.Lambs),
		Survivors:       e.lambs.SurvivorCount(e.Faults),
		LastError:       s.LastError(),
	}
	for _, l := range e.Faults.LinkFaults() {
		resp.LinkFaults = append(resp.LinkFaults, LinkReport{
			From: coordWire(l.From), Dim: l.Dim, Dir: l.Dir,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	e := s.Epoch()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WriteTo(w, e.Generation, e.Age(time.Now()))
	if e.Table != nil {
		st := e.Table.Stats()
		fmt.Fprintf(w, "# HELP lambd_classtable_classes (SES, DES) classes in the live epoch's table\n# TYPE lambd_classtable_classes gauge\n")
		fmt.Fprintf(w, "lambd_classtable_classes{kind=\"ses\"} %d\n", st.SESs)
		fmt.Fprintf(w, "lambd_classtable_classes{kind=\"des\"} %d\n", st.DESs)
		fmt.Fprintf(w, "# HELP lambd_classtable_cells via cells in the live epoch's table\n# TYPE lambd_classtable_cells gauge\n")
		fmt.Fprintf(w, "lambd_classtable_cells %d\n", st.Cells)
		fmt.Fprintf(w, "# HELP lambd_classtable_bytes approximate table size\n# TYPE lambd_classtable_bytes gauge\n")
		fmt.Fprintf(w, "lambd_classtable_bytes %d\n", st.Bytes)
	}
}

func (s *Server) badRequest(w http.ResponseWriter, err error) {
	s.metrics.BadRequests.Add(1)
	writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// coordWire renders a coordinate in the wire syntax ("(x,y)").
func coordWire(c mesh.Coord) string { return c.String() }

func coordsWire(cs []mesh.Coord) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.String()
	}
	return out
}
