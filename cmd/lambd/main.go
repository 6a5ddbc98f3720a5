// Command lambd runs the lambmesh route control plane: a daemon that owns
// the roll-back/reconfigure loop (paper Section 1) and serves route
// queries over HTTP/JSON while fault reports stream in. It also bundles a
// small client for each endpoint.
//
// Usage:
//
//	lambd serve  -addr :8080 -wire-addr :8081 -mesh 16x16 -k 2 [-keep-lambs] [-load faults.txt] [-workers N] [-pprof-addr localhost:6060]
//	lambd route  -addr http://host:8080 -src 0,0 -dst 5,5
//	lambd faults -addr http://host:8080 [-nodes "(3,3);(4,4)"] [-links "(1,1),0,+1"] [-file faults.txt]
//	lambd config -addr http://host:8080
//	lambd metrics -addr http://host:8080
//	lambd bench  -addr http://host:8080 [-proto wire|http] [-conns N] [-pipeline D] [-duration 10s] [-mix uniform|hotspot] [-json out.json]
//
// Every client subcommand honors -timeout and exits non-zero when the
// daemon is unreachable or answers an error status.
//
// Fault files use the lambmesh fault format (lambmesh.WriteFaults); the
// "faults" subcommand's -file reports a file's faults to a running daemon,
// while serve's -load seeds the daemon with them at startup.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // serve's -pprof-addr listener
	"os"
	"strconv"
	"strings"
	"time"

	"lambmesh"
	"lambmesh/internal/mesh"
	"lambmesh/internal/server"
	"lambmesh/internal/wire"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	cmd, rest := args[0], args[1:]
	var err error
	switch cmd {
	case "serve":
		err = cmdServe(rest, stdout, stderr)
	case "route":
		err = cmdRoute(rest, stdout)
	case "faults":
		err = cmdFaults(rest, stdout)
	case "config":
		err = cmdConfig(rest, stdout)
	case "metrics":
		err = cmdMetrics(rest, stdout)
	case "bench":
		err = cmdBench(rest, stdout)
	case "help", "-h", "--help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "lambd: unknown subcommand %q\n", cmd)
		usage(stderr)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "lambd:", err)
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: lambd <subcommand> [flags]

subcommands:
  serve    run the route control plane daemon
  route    query a running daemon for a k-round route
  faults   report newly detected faults to a running daemon
  config   show a running daemon's live epoch
  metrics  dump a running daemon's /metrics page
  bench    closed-loop load generator for the HTTP or binary route protocol

run 'lambd <subcommand> -h' for flags.`)
}

// newServerFromFlags assembles the daemon from serve's flag values.
// Factored out of cmdServe so tests can build (and close) a server
// without binding a listener.
func newServerFromFlags(meshSpec string, k int, keepLambs bool, loadPath string, workers int) (*server.Server, error) {
	var initial *lambmesh.FaultSet
	var m *lambmesh.Mesh
	if loadPath != "" {
		fh, err := os.Open(loadPath)
		if err != nil {
			return nil, err
		}
		initial, err = lambmesh.ReadFaults(fh)
		fh.Close()
		if err != nil {
			return nil, err
		}
		// A full mesh's grid is the ring T_1(N): serving it would silently
		// solve a different network.
		if tag := initial.Topology().Tag(); tag == "fullmesh" {
			return nil, fmt.Errorf("%s: lambd does not serve the %s topology (want mesh, torus, or hypercube)", loadPath, tag)
		}
		m = initial.Mesh()
	} else {
		widths, err := mesh.ParseWidths(meshSpec)
		if err != nil {
			return nil, err
		}
		m, err = lambmesh.NewMesh(widths...)
		if err != nil {
			return nil, err
		}
	}
	return server.New(server.Config{
		Mesh:          m,
		Orders:        lambmesh.UniformAscending(m.Dims(), k),
		KeepLambs:     keepLambs,
		InitialFaults: initial,
		Workers:       workers,
	})
}

func cmdServe(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		wireAddr  = fs.String("wire-addr", ":8081", "binary route protocol listen address (empty disables)")
		meshSpec  = fs.String("mesh", "16x16", "mesh widths, e.g. 16x16 or 32x32x32")
		k         = fs.Int("k", 2, "routing rounds (virtual channels)")
		keepLambs = fs.Bool("keep-lambs", false, "lamb sets only grow across generations")
		load      = fs.String("load", "", "seed faults from a lambmesh fault file (overrides -mesh)")
		workers   = fs.Int("workers", 0, "recompute worker pool size; 0 = all CPUs (shrinks the stale-epoch window)")
		pprofAddr = fs.String("pprof-addr", "", "net/http/pprof listen address, e.g. localhost:6060 (empty disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := newServerFromFlags(*meshSpec, *k, *keepLambs, *load, *workers)
	if err != nil {
		return err
	}
	defer s.Close()
	s.PublishExpvar()
	if *pprofAddr != "" {
		// The pprof handlers register on http.DefaultServeMux at import;
		// serve that mux on its own listener so profiles stay off the
		// public API port.
		l, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return err
		}
		defer l.Close()
		go http.Serve(l, nil)
		fmt.Fprintf(stdout, "lambd: pprof on http://%s/debug/pprof/\n", l.Addr())
	}
	if *wireAddr != "" {
		l, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			return err
		}
		defer l.Close()
		go wire.Serve(l, s.WireBackend())
		fmt.Fprintf(stdout, "lambd: binary route protocol on %s\n", *wireAddr)
	}
	e := s.Epoch()
	fmt.Fprintf(stdout, "lambd: serving %v (k=%d, generation %d, %d faults, %d lambs) on %s\n",
		s.Mesh(), *k, e.Generation, e.Faults.Count(), len(e.Lambs), *addr)
	return http.ListenAndServe(*addr, s.Handler())
}

// clientFlags registers the flags every client subcommand shares.
func clientFlags(fs *flag.FlagSet) (addr *string, timeout *time.Duration) {
	addr = fs.String("addr", "http://localhost:8080", "daemon base URL")
	timeout = fs.Duration("timeout", 10*time.Second, "request timeout (0 = none)")
	return addr, timeout
}

func cmdRoute(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("route", flag.ContinueOnError)
	addr, timeout := clientFlags(fs)
	var (
		src     = fs.String("src", "", "source coordinate, e.g. 0,0")
		dst     = fs.String("dst", "", "destination coordinate")
		rawJSON = fs.Bool("json", false, "print the raw JSON response")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *src == "" || *dst == "" {
		return fmt.Errorf("route: -src and -dst are required")
	}
	var resp server.RouteResponse
	raw, err := postJSON(httpClient(*timeout), *addr+"/v1/route", server.RouteRequest{Src: *src, Dst: *dst}, &resp)
	if err != nil {
		return err
	}
	if *rawJSON {
		fmt.Fprintln(stdout, string(raw))
		return nil
	}
	if !resp.Found {
		fmt.Fprintf(stdout, "no route (generation %d): %s\n", resp.Generation, resp.Reason)
		return nil
	}
	fmt.Fprintf(stdout, "%s -> %s: %d hops, %d turns, vias %s (generation %d)\n",
		resp.Src, resp.Dst, resp.Hops, resp.Turns, strings.Join(resp.Vias, " "), resp.Generation)
	fmt.Fprintln(stdout, strings.Join(resp.Path, " "))
	return nil
}

func cmdFaults(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("faults", flag.ContinueOnError)
	addr, timeout := clientFlags(fs)
	var (
		nodes = fs.String("nodes", "", "semicolon-separated node faults, e.g. \"(3,3);(4,4)\"")
		links = fs.String("links", "", "semicolon-separated link faults as \"(x,y),dim,dir\"")
		file  = fs.String("file", "", "report every fault in a lambmesh fault file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	report, err := buildFaultReport(*nodes, *links, *file)
	if err != nil {
		return err
	}
	if len(report.Nodes)+len(report.Links) == 0 {
		return fmt.Errorf("faults: nothing to report (use -nodes, -links, or -file)")
	}
	var ack server.FaultAck
	if _, err := postJSON(httpClient(*timeout), *addr+"/v1/faults", report, &ack); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "accepted %d faults at generation %d; poll 'lambd config' for the swap\n",
		ack.Accepted, ack.Generation)
	return nil
}

// buildFaultReport merges inline node/link specs and a fault file into one
// wire-format report.
func buildFaultReport(nodes, links, file string) (server.FaultReport, error) {
	var report server.FaultReport
	for _, spec := range splitSpecs(nodes) {
		if _, err := lambmesh.ParseCoord(spec); err != nil {
			return report, fmt.Errorf("node %q: %v", spec, err)
		}
		report.Nodes = append(report.Nodes, spec)
	}
	for _, spec := range splitSpecs(links) {
		lr, err := parseLinkSpec(spec)
		if err != nil {
			return report, err
		}
		report.Links = append(report.Links, lr)
	}
	if file != "" {
		fh, err := os.Open(file)
		if err != nil {
			return report, err
		}
		f, err := lambmesh.ReadFaults(fh)
		fh.Close()
		if err != nil {
			return report, err
		}
		for _, c := range f.SortedNodeFaults() {
			report.Nodes = append(report.Nodes, c.String())
		}
		for _, l := range f.LinkFaults() {
			report.Links = append(report.Links, server.LinkReport{
				From: l.From.String(), Dim: l.Dim, Dir: l.Dir,
			})
		}
	}
	return report, nil
}

// parseLinkSpec parses "(x,y),dim,dir" (dir is +1/-1; "+" and "-" work).
func parseLinkSpec(spec string) (server.LinkReport, error) {
	var lr server.LinkReport
	open := strings.LastIndex(spec, ")")
	if !strings.HasPrefix(spec, "(") || open < 0 {
		return lr, fmt.Errorf("link %q: want \"(x,y),dim,dir\"", spec)
	}
	coord := spec[:open+1]
	if _, err := lambmesh.ParseCoord(coord); err != nil {
		return lr, fmt.Errorf("link %q: %v", spec, err)
	}
	rest := strings.TrimPrefix(spec[open+1:], ",")
	parts := strings.Split(rest, ",")
	if len(parts) != 2 {
		return lr, fmt.Errorf("link %q: want \"(x,y),dim,dir\"", spec)
	}
	dim, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return lr, fmt.Errorf("link %q: bad dimension: %v", spec, err)
	}
	dirStr := strings.TrimSpace(parts[1])
	var dir int
	switch dirStr {
	case "+", "+1", "1":
		dir = 1
	case "-", "-1":
		dir = -1
	default:
		return lr, fmt.Errorf("link %q: bad direction %q", spec, dirStr)
	}
	return server.LinkReport{From: coord, Dim: dim, Dir: dir}, nil
}

func splitSpecs(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ";") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func cmdConfig(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("config", flag.ContinueOnError)
	addr, timeout := clientFlags(fs)
	rawJSON := fs.Bool("json", false, "print the raw JSON response")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var cfg server.ConfigResponse
	raw, err := getJSON(httpClient(*timeout), *addr+"/v1/config", &cfg)
	if err != nil {
		return err
	}
	if *rawJSON {
		fmt.Fprintln(stdout, string(raw))
		return nil
	}
	kind := "mesh"
	if cfg.Torus {
		kind = "torus"
	}
	fmt.Fprintf(stdout, "%s %s, orders %s, generation %d (epoch age %.1fs)\n",
		kind, cfg.Mesh, cfg.Orders, cfg.Generation, cfg.EpochAgeSeconds)
	fmt.Fprintf(stdout, "faults: %d nodes, %d links; lambs: %d; survivors: %d\n",
		len(cfg.NodeFaults), len(cfg.LinkFaults), len(cfg.Lambs), cfg.Survivors)
	if len(cfg.Lambs) > 0 {
		fmt.Fprintln(stdout, "lambs:", strings.Join(cfg.Lambs, " "))
	}
	if cfg.LastError != "" {
		fmt.Fprintln(stdout, "last recompute error:", cfg.LastError)
	}
	return nil
}

func cmdMetrics(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("metrics", flag.ContinueOnError)
	addr, timeout := clientFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	resp, err := httpClient(*timeout).Get(*addr + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		raw, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("server: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	_, err = io.Copy(stdout, resp.Body)
	return err
}

// httpClient builds the client every subcommand queries through; a zero
// timeout means no limit.
func httpClient(timeout time.Duration) *http.Client {
	return &http.Client{Timeout: timeout}
}

// postJSON posts v and decodes the response into out, returning the raw
// body. Non-2xx responses surface the server's JSON error message.
func postJSON(c *http.Client, url string, v, out any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return handleResponse(resp, out)
}

func getJSON(c *http.Client, url string, out any) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	return handleResponse(resp, out)
}

func handleResponse(resp *http.Response, out any) ([]byte, error) {
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 {
		var eb struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(raw, &eb) == nil && eb.Error != "" {
			return raw, fmt.Errorf("server: %s (HTTP %d)", eb.Error, resp.StatusCode)
		}
		return raw, fmt.Errorf("server: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, json.Unmarshal(raw, out)
}
