// Command wormsim runs open-loop injection-rate workloads through the
// flit-level wormhole simulator: it computes a lamb set for a faulty mesh,
// drives a synthetic traffic pattern at one or more injection rates, and
// reports accepted throughput and packet latency for the lamb-routed faulty
// mesh next to a fault-free baseline.
//
// Usage:
//
//	wormsim -mesh 16x16 -faults 10 -rate 0.02 -pattern uniform
//	wormsim -mesh 16x16 -faults 10 -sweep -rates 0.005,0.01,0.02,0.05,0.1
//	        -trials 4 -format csv
//	wormsim -mesh 16x16 -faults 8 -rate 0.02 -fault-schedule events.txt
//	wormsim -mesh 16x16 -faults 8 -rate 0.02 -mtbf 400
//	wormsim -mesh 16x16 -faults 10 -rate 0.02 -strategy ring
//	wormsim -topology torus -mesh 8x8 -vcs 4 -faults 6 -rate 0.02
//	wormsim -topology hypercube -mesh 2x2x2x2 -faults 2 -rate 0.02
//	wormsim -topology fullmesh -mesh 12 -strategy direct -vcs 1 -faults 4
//
// -strategy selects the routing data plane: lamb (the paper's scheme, the
// default), ring (the Boppana–Chalasani fault-ring baseline; reports
// sacrificed nodes instead of lambs), adaptive (negative-first turn
// model), or direct (full-mesh direct/one-hop-indirect routing). Each
// strategy runs against the same fault draw but its own seed stream, with
// the fault-free baseline routed by the same strategy.
//
// -topology selects the network: mesh (default), torus (lamb only; needs
// -vcs >= 2k for the dateline VC pairs), hypercube (-mesh widths all 2),
// or fullmesh (-mesh N; requires -strategy direct, runs on a single VC).
//
// With -fault-schedule or -mtbf the lamb case becomes a live run: the
// scheduled (or randomly drawn) faults strike mid-simulation, the lamb set
// is recomputed on the fly, killed worms are retransmitted, and the output
// gains recovery columns (reconfigurations, dropped worms, retransmits,
// lost packets, recovery latency). The baseline stays clean.
//
// Output is a pure function of the flags: at a fixed -seed the bytes are
// identical for any -workers value, so sweeps are safe to diff across
// machines and CI runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
	"lambmesh/internal/wormhole"
)

// cliConfig is the parsed, validated flag set; run is a pure function of it.
type cliConfig struct {
	topology string
	widths   []int
	nFaults  int
	k        int
	vcs      int
	buffer   int
	seed     int64

	pattern wormhole.Pattern
	hotspot float64
	packet  int
	warmup  int
	measure int
	drain   int
	trials  int
	workers int

	sweep    bool
	rates    []float64
	baseline bool
	format   string
	strategy string

	schedule wormhole.FaultSchedule
	mtbf     float64
}

// live reports whether the run injects faults mid-simulation.
func (c *cliConfig) live() bool { return !c.schedule.Empty() || c.mtbf > 0 }

// defaultSweepRates spans light load to past saturation for small meshes.
var defaultSweepRates = []float64{0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2}

func parseConfig(args []string) (*cliConfig, error) {
	fs := flag.NewFlagSet("wormsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var (
		topoFlag    = fs.String("topology", "mesh", "network topology: mesh, torus, hypercube, fullmesh")
		meshFlag    = fs.String("mesh", "16x16", "mesh widths, e.g. 16x16 or 8x8x8 (hypercube: all 2; fullmesh: node count N)")
		nFaults     = fs.Int("faults", 10, "random node faults")
		k           = fs.Int("k", 2, "routing rounds")
		vcs         = fs.Int("vcs", 2, "virtual channels per link")
		buffer      = fs.Int("buffer", 2, "per-VC buffer depth (flits)")
		seed        = fs.Int64("seed", 1, "rng seed (fault draw and workloads)")
		patternFlag = fs.String("pattern", "uniform", "traffic pattern: uniform, transpose, bitcomp, hotspot")
		hotspot     = fs.Float64("hotspot", 0.2, "hotspot pattern: fraction of traffic aimed at the hotspot node")
		packet      = fs.Int("packet", 8, "packet length (flits)")
		warmup      = fs.Int("warmup", 300, "warm-up cycles (simulated, not sampled)")
		measure     = fs.Int("measure", 600, "measurement window (cycles)")
		drain       = fs.Int("drain", 0, "drain bound (cycles); 0 means 4x measure")
		trials      = fs.Int("trials", 3, "independent trials per rate point")
		workers     = fs.Int("workers", 0, "worker pool size; 0 means NumCPU (does not change output)")
		sweep       = fs.Bool("sweep", false, "sweep a list of rates instead of a single point")
		ratesFlag   = fs.String("rates", "", "comma-separated injection rates for -sweep (default a built-in ramp)")
		rate        = fs.Float64("rate", 0.02, "injection rate, packets/node/cycle (single-point mode)")
		baseline    = fs.Bool("baseline", true, "also run the fault-free mesh as a baseline")
		format      = fs.String("format", "table", "output format: table, csv, json")
		schedFlag   = fs.String("fault-schedule", "", "fault-schedule file: faults injected mid-run into the lamb case (baseline stays clean)")
		mtbf        = fs.Float64("mtbf", 0, "mean cycles between random mid-run node faults in the lamb case; 0 disables")
		strategy    = fs.String("strategy", "lamb", "routing strategy: lamb, ring (Boppana-Chalasani fault rings), adaptive (negative-first), direct (full mesh only)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	cfg := &cliConfig{
		nFaults: *nFaults, k: *k, vcs: *vcs, buffer: *buffer, seed: *seed,
		hotspot: *hotspot, packet: *packet, warmup: *warmup, measure: *measure,
		drain: *drain, trials: *trials, workers: *workers,
		sweep: *sweep, baseline: *baseline, format: *format,
	}
	var err error
	if cfg.widths, err = parseWidths(*meshFlag); err != nil {
		return nil, err
	}
	if cfg.pattern, err = wormhole.ParsePattern(*patternFlag); err != nil {
		return nil, err
	}
	switch *format {
	case "table", "csv", "json":
	default:
		return nil, fmt.Errorf("unknown format %q (want table, csv, or json)", *format)
	}
	cfg.strategy = *strategy
	if _, err := wormhole.StrategyIndex(cfg.strategy); err != nil {
		return nil, err
	}
	cfg.topology = *topoFlag
	known := false
	for _, n := range mesh.TopologyNames() {
		known = known || n == cfg.topology
	}
	if !known {
		return nil, fmt.Errorf("unknown topology %q (want one of %v)", cfg.topology, mesh.TopologyNames())
	}
	// The direct strategy and the full-mesh topology define each other.
	if cfg.topology == "fullmesh" && cfg.strategy != "direct" {
		return nil, fmt.Errorf("-topology fullmesh requires -strategy direct")
	}
	if cfg.strategy == "direct" && cfg.topology != "fullmesh" {
		return nil, fmt.Errorf("-strategy direct requires -topology fullmesh")
	}
	if *sweep {
		cfg.rates = defaultSweepRates
		if *ratesFlag != "" {
			if cfg.rates, err = parseRates(*ratesFlag); err != nil {
				return nil, err
			}
		}
	} else {
		cfg.rates = []float64{*rate}
	}
	for _, r := range cfg.rates {
		if r <= 0 || r > 1 {
			return nil, fmt.Errorf("injection rate %v outside (0, 1]", r)
		}
	}
	if cfg.k < 1 || cfg.vcs < 1 || cfg.packet < 1 || cfg.trials < 1 ||
		cfg.warmup < 0 || cfg.measure < 1 || cfg.nFaults < 0 {
		return nil, fmt.Errorf("k, vcs, packet, trials must be >= 1; warmup, faults >= 0; measure >= 1")
	}
	if *mtbf < 0 {
		return nil, fmt.Errorf("negative -mtbf %v", *mtbf)
	}
	cfg.mtbf = *mtbf
	if *schedFlag != "" {
		if cfg.schedule, err = wormhole.ReadScheduleFile(*schedFlag); err != nil {
			return nil, err
		}
	}
	return cfg, nil
}

func parseWidths(s string) ([]int, error) {
	var widths []int
	cur := 0
	seen := false
	for _, r := range s {
		switch {
		case r >= '0' && r <= '9':
			cur = cur*10 + int(r-'0')
			seen = true
		case r == 'x' && seen:
			widths = append(widths, cur)
			cur, seen = 0, false
		default:
			return nil, fmt.Errorf("bad mesh spec %q", s)
		}
	}
	if !seen {
		return nil, fmt.Errorf("bad mesh spec %q", s)
	}
	return append(widths, cur), nil
}

func parseRates(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	rates := make([]float64, 0, len(parts))
	for _, p := range parts {
		r, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad rate %q in -rates", p)
		}
		rates = append(rates, r)
	}
	return rates, nil
}

// sweepRow is one (case, rate) result, flattened for csv/json emission.
type sweepRow struct {
	Case      string  `json:"case"` // the strategy name or "baseline"
	Rate      float64 `json:"rate"`
	Offered   float64 `json:"offeredFlitRate"`
	Accepted  float64 `json:"acceptedFlitRate"`
	MeanLat   float64 `json:"meanLatency"`
	P99Lat    float64 `json:"p99Latency"`
	MaxLat    int     `json:"maxLatency"`
	Delivered float64 `json:"deliveredFraction"`
	Saturated bool    `json:"saturated"`
	Deadlock  bool    `json:"deadlocked"`
	VCUtil    string  `json:"vcMeanUtil"` // space-joined per-VC means

	// Mid-run recovery aggregates; all zero unless the run is live.
	Reconfigs    int     `json:"reconfigurations"`
	DroppedWorms int     `json:"droppedWorms"`
	Retransmits  int     `json:"retransmits"`
	Lost         int     `json:"lostPackets"`
	MeanRecovery float64 `json:"meanRecoveryLatency"`
	Unrecovered  int     `json:"unrecovered"`
}

// report is the full JSON document; table/csv emit only the rows. Strategy
// and Sacrificed replace Lambs on runs that name their strategy (any but
// lamb, and lamb on a torus), and Topology is set only by non-mesh
// -topology runs (omitempty keeps the default lamb-on-mesh JSON
// byte-identical to earlier releases).
type report struct {
	Topology   string     `json:"topology,omitempty"`
	Mesh       string     `json:"mesh"`
	Faults     int        `json:"faults"`
	Lambs      int        `json:"lambs"`
	Survivors  int        `json:"survivors"`
	Rounds     int        `json:"rounds"`
	VCs        int        `json:"vcs"`
	Pattern    string     `json:"pattern"`
	Packet     int        `json:"packetFlits"`
	Trials     int        `json:"trials"`
	Seed       int64      `json:"seed"`
	Live       bool       `json:"live"` // mid-run fault injection active
	Strategy   string     `json:"strategy,omitempty"`
	Sacrificed int        `json:"sacrificed,omitempty"`
	Rows       []sweepRow `json:"rows"`
}

// buildTopology constructs the network from -topology and -mesh. The mesh
// case goes through mesh.New exactly as before the flag existed.
func buildTopology(cfg *cliConfig) (mesh.Topology, error) {
	switch cfg.topology {
	case "torus":
		return mesh.NewTorus(cfg.widths...)
	case "hypercube":
		for _, w := range cfg.widths {
			if w != 2 {
				return nil, fmt.Errorf("-topology hypercube needs every width to be 2 (e.g. -mesh 2x2x2x2), got %v", cfg.widths)
			}
		}
		return mesh.NewHypercube(len(cfg.widths))
	case "fullmesh":
		if len(cfg.widths) != 1 {
			return nil, fmt.Errorf("-topology fullmesh takes a node count (e.g. -mesh 12), got %v", cfg.widths)
		}
		return mesh.NewFullMesh(cfg.widths[0])
	default:
		return mesh.New(cfg.widths...)
	}
}

// run is one wormsim invocation: every case routes through a
// RouteStrategy. Each strategy draws from its own TrialSeed stream block
// (StrategyStream; lamb is block 0), so cross-strategy comparisons at one
// seed are independent samples, and the fault draw is shared, so they face
// the identical fault set. The baseline runs the same strategy on the
// fault-free network: a strategy's fault-free behavior is its own
// reference, not lamb's.
func run(cfg *cliConfig, w io.Writer) error {
	topo, err := buildTopology(cfg)
	if err != nil {
		return err
	}
	m := topo.Grid()
	// The fault draw gets its own rng: sweep cells reseed from (seed, rate,
	// trial), so consuming here cannot shift workload randomness.
	faults := mesh.RandomNodeFaultsOn(topo, cfg.nFaults, rand.New(rand.NewSource(cfg.seed)))
	orders := routing.UniformAscending(m.Dims(), cfg.k)
	stream, err := wormhole.StrategyIndex(cfg.strategy)
	if err != nil {
		return err
	}
	builder, err := wormhole.NewStrategyBuilder(cfg.strategy, orders)
	if err != nil {
		return err
	}
	strat, err := builder(faults)
	if err != nil {
		return err
	}
	// Lamb on a mesh or hypercube keeps the lamb report and runs with any
	// -vcs: fewer VCs than rounds is the under-provisioning deadlock
	// demonstration. Every other case names its strategy and must meet the
	// scheme's VC discipline (2k dateline VCs for lamb on a torus).
	named := cfg.strategy != "lamb" || cfg.topology == "torus"
	if named && cfg.vcs < strat.MinVCs() {
		return fmt.Errorf("strategy %s needs at least %d VCs (got -vcs %d)",
			cfg.strategy, strat.MinVCs(), cfg.vcs)
	}

	spec := wormhole.SweepSpec{
		Rates:           cfg.rates,
		Trials:          cfg.trials,
		Pattern:         cfg.pattern,
		PacketFlits:     cfg.packet,
		HotspotFraction: cfg.hotspot,
		Warmup:          cfg.warmup,
		Measure:         cfg.measure,
		Drain:           cfg.drain,
		Net: wormhole.Config{
			VirtualChannels: cfg.vcs,
			BufferDepth:     cfg.buffer,
			StallCycles:     2000,
			MaxCycles:       5_000_000,
		},
		Seed:           cfg.seed,
		Workers:        cfg.workers,
		Strategy:       builder,
		StrategyStream: stream,
	}

	sacrificed := strat.Sacrificed()
	rep := report{
		Mesh:      fmt.Sprint(topo),
		Faults:    faults.Count(),
		Survivors: len(wormhole.Survivors(faults, sacrificed)),
		Rounds:    cfg.k,
		VCs:       cfg.vcs,
		Pattern:   cfg.pattern.String(),
		Packet:    cfg.packet,
		Trials:    cfg.trials,
		Seed:      cfg.seed,
		Live:      cfg.live(),
	}
	if named {
		rep.Strategy = cfg.strategy
		rep.Sacrificed = len(sacrificed)
	} else {
		rep.Lambs = len(sacrificed)
	}
	if cfg.topology != "mesh" {
		rep.Topology = cfg.topology
	}
	// Mid-run faults strike the faulty case only: the baseline stays the
	// clean fault-free reference the recovery numbers are read against.
	faultySpec := spec
	faultySpec.Schedule = cfg.schedule
	faultySpec.MTBF = cfg.mtbf
	faulty, err := wormhole.RunSweep(faults, faultySpec)
	if err != nil {
		return err
	}
	rep.Rows = appendRows(rep.Rows, cfg.strategy, faulty)
	if cfg.baseline {
		base, err := wormhole.RunSweep(mesh.NewFaultSetOn(topo), spec)
		if err != nil {
			return err
		}
		rep.Rows = appendRows(rep.Rows, "baseline", base)
	}
	return render(w, cfg.format, rep)
}

func appendRows(rows []sweepRow, name string, points []wormhole.SweepPoint) []sweepRow {
	for _, p := range points {
		util := make([]string, len(p.VCMeanUtil))
		for v, u := range p.VCMeanUtil {
			util[v] = strconv.FormatFloat(u, 'f', 4, 64)
		}
		rows = append(rows, sweepRow{
			Case: name, Rate: p.Rate,
			Offered: p.OfferedFlitRate, Accepted: p.AcceptedFlitRate,
			MeanLat: p.MeanLatency, P99Lat: p.P99Latency, MaxLat: p.MaxLatency,
			Delivered: p.DeliveredFraction, Saturated: p.Saturated,
			Deadlock: p.Deadlocked, VCUtil: strings.Join(util, " "),
			Reconfigs: p.Reconfigurations, DroppedWorms: p.DroppedWorms,
			Retransmits: p.Retransmits, Lost: p.LostPackets,
			MeanRecovery: p.MeanRecoveryLatency, Unrecovered: p.Unrecovered,
		})
	}
	return rows
}

func render(w io.Writer, format string, rep report) error {
	switch format {
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	case "csv":
		header := "case,rate,offered,accepted,mean_latency,p99_latency,max_latency,delivered,saturated,deadlocked,vc_mean_util"
		if rep.Live {
			header += ",reconfigs,dropped_worms,retransmits,lost,mean_recovery,unrecovered"
		}
		fmt.Fprintln(w, header)
		for _, r := range rep.Rows {
			fmt.Fprintf(w, "%s,%g,%.6f,%.6f,%.3f,%.1f,%d,%.4f,%t,%t,%s",
				r.Case, r.Rate, r.Offered, r.Accepted, r.MeanLat, r.P99Lat,
				r.MaxLat, r.Delivered, r.Saturated, r.Deadlock,
				strings.ReplaceAll(r.VCUtil, " ", "|"))
			if rep.Live {
				fmt.Fprintf(w, ",%d,%d,%d,%d,%.1f,%d",
					r.Reconfigs, r.DroppedWorms, r.Retransmits, r.Lost,
					r.MeanRecovery, r.Unrecovered)
			}
			fmt.Fprintln(w)
		}
		return nil
	default: // table
		if rep.Strategy != "" {
			fmt.Fprintf(w, "mesh %s, strategy %s, %d faults, %d sacrificed, %d survivors, %d VCs, pattern %s, %d-flit packets, %d trials, seed %d\n",
				rep.Mesh, rep.Strategy, rep.Faults, rep.Sacrificed, rep.Survivors, rep.VCs,
				rep.Pattern, rep.Packet, rep.Trials, rep.Seed)
		} else {
			fmt.Fprintf(w, "mesh %s, %d faults, %d lambs, %d survivors, %d rounds on %d VCs, pattern %s, %d-flit packets, %d trials, seed %d\n",
				rep.Mesh, rep.Faults, rep.Lambs, rep.Survivors, rep.Rounds, rep.VCs,
				rep.Pattern, rep.Packet, rep.Trials, rep.Seed)
		}
		header := fmt.Sprintf("%-9s %8s %9s %9s %10s %8s %7s %9s %5s %5s",
			"case", "rate", "offered", "accepted", "mean_lat", "p99_lat", "max_lat", "delivered", "sat", "dead")
		if rep.Live {
			header += fmt.Sprintf(" %8s %7s %7s %5s %9s %6s",
				"reconfig", "dropped", "retrans", "lost", "recovery", "unrec")
		}
		fmt.Fprintln(w, header)
		for _, r := range rep.Rows {
			fmt.Fprintf(w, "%-9s %8g %9.5f %9.5f %10.2f %8.1f %7d %9.4f %5t %5t",
				r.Case, r.Rate, r.Offered, r.Accepted, r.MeanLat, r.P99Lat,
				r.MaxLat, r.Delivered, r.Saturated, r.Deadlock)
			if rep.Live {
				fmt.Fprintf(w, " %8d %7d %7d %5d %9.1f %6d",
					r.Reconfigs, r.DroppedWorms, r.Retransmits, r.Lost,
					r.MeanRecovery, r.Unrecovered)
			}
			fmt.Fprintln(w)
		}
		return nil
	}
}

func main() {
	cfg, err := parseConfig(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "wormsim:", err)
		os.Exit(2)
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wormsim:", err)
		os.Exit(1)
	}
}
