// Command lambfind computes a lamb set for a given mesh and fault set.
//
// Usage:
//
//	lambfind -mesh 32x32x32 [-torus] -k 2 [-algo lamb1|lamb2|exact|generic]
//	         [-load faults.txt] [-faults "(9,1);(11,6);(10,10)"] [-random 983 -seed 1]
//	         [-save faults.txt] [-workers N] [-verify] [-v]
//	         [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-repeat N]
//
// -load reads the network and its faults from a lambmesh fault file (the
// internal/mesh format, e.g. "mesh 12x12" / "node 9,1" / "link 1,1 0 +1"),
// overriding -mesh and -torus; -save writes the final fault set in the same
// format, so a saved run reloads unchanged. -faults and -random add node
// faults on top. Full-mesh fault files are rejected: the lamb method needs a
// mesh, torus or hypercube. Output is the lamb set, one coordinate per line,
// preceded by a summary on stderr.
//
// -workers N bounds the worker pool the reachability kernels run on (0, the
// default, means all CPUs). The computed lamb set is bit-identical for every
// worker count; the flag only trades wall-clock time against CPU share. The
// torus path (and -algo generic) is single-threaded and ignores it; -algo
// lamb2 and exact need rectangular partitions, so they fail on a torus.
// -verify checks Definition 2.6 on meshes and tori alike.
//
// -cpuprofile and -memprofile write runtime/pprof profiles of the lamb
// computation (inspect with `go tool pprof`). The CPU profile covers only
// the computation, not flag parsing or fault loading; the heap profile is
// written after the computation with a forced GC, so it shows retained
// memory rather than transient garbage. -repeat N runs the computation N
// times through one reused Solver — the steady state the profiles should
// capture (a single run is dominated by one-time buffer growth).
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"lambmesh/internal/core"
	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
	"lambmesh/internal/viz"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "lambfind:", err)
		os.Exit(1)
	}
}

// run is lambfind with its command line, lamb output and report streams
// passed in.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lambfind", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		meshFlag  = fs.String("mesh", "32x32x32", "mesh widths, e.g. 32x32 or 32x32x32")
		torus     = fs.Bool("torus", false, "use a torus (wrap-around links; Section 7 class reduction)")
		k         = fs.Int("k", 2, "number of routing rounds (virtual channels)")
		algo      = fs.String("algo", "lamb1", "algorithm: lamb1 | lamb2 | exact | generic")
		faultsStr = fs.String("faults", "", "semicolon-separated fault coordinates, e.g. \"(9,1);(11,6)\"")
		random    = fs.Int("random", 0, "number of random node faults to draw instead")
		seed      = fs.Int64("seed", 1, "seed for -random")
		workers   = fs.Int("workers", 0, "reachability worker pool size; 0 = all CPUs (result is identical for any value)")
		verify    = fs.Bool("verify", false, "re-verify the lamb set (SES/DES algebra on meshes, survivor pairs on tori)")
		verbose   = fs.Bool("v", false, "print partition statistics")
		load      = fs.String("load", "", "load mesh+faults from a file in the lambmesh fault format (overrides -mesh)")
		save      = fs.String("save", "", "save the mesh+faults to a file in the lambmesh fault format")
		draw      = fs.Bool("draw", false, "draw the mesh with faults (X) and lambs (L); 2D meshes only")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the lamb computation to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile (after the computation, post-GC) to this file")
		repeat    = fs.Int("repeat", 1, "run the computation N times through one Solver (for profiling the steady state)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil // -h: the usage is already printed
		}
		return err
	}

	f, err := openFaults(*load, *meshFlag, *torus)
	if err != nil {
		return err
	}
	m := f.Mesh()
	if err := loadFaults(f, *faultsStr); err != nil {
		return err
	}
	if *random > 0 {
		rf := mesh.RandomNodeFaults(m, *random, rand.New(rand.NewSource(*seed)))
		f.AddNodes(rf.NodeFaults()...)
	}
	if f.Count() == 0 {
		fmt.Fprintln(stderr, "lambfind: no faults given; every good node already reaches every other")
	}

	if *save != "" {
		if err := writeFile(*save, func(w io.Writer) error { return mesh.WriteFaults(w, f) }); err != nil {
			return err
		}
	}

	orders := routing.UniformAscending(m.Dims(), *k)
	if *cpuProf != "" {
		fh, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(fh); err != nil {
			return err
		}
		defer fh.Close()
	}
	var res *core.Result
	s := core.NewSolver()
	for i := 0; i < *repeat || i == 0; i++ {
		res, err = computeLamb(s, f, orders, *algo, *workers)
		if err != nil {
			return err
		}
	}
	if *cpuProf != "" {
		pprof.StopCPUProfile()
	}
	if *memProf != "" {
		runtime.GC()
		if err := writeFile(*memProf, pprof.WriteHeapProfile); err != nil {
			return err
		}
	}

	fmt.Fprintf(stderr, "mesh %v, %d node faults, %d link faults, k=%d (%v)\n",
		m, f.NumNodeFaults(), f.NumLinkFaults(), *k, orders)
	fmt.Fprintf(stderr, "lambs: %d (%.4f%% of nodes, %.1f%% of faults), survivors: %d\n",
		res.NumLambs(),
		100*float64(res.NumLambs())/float64(m.Nodes()),
		pct(res.NumLambs(), f.Count()),
		res.Survivors(f))
	if *verbose {
		fmt.Fprintf(stderr, "SESs %d, DESs %d, relevant %d/%d, cover weight %d, proven lower bound %d\n",
			res.Stats.NumSES, res.Stats.NumDES,
			res.Stats.RelevantSES, res.Stats.RelevantDES,
			res.Stats.CoverWeight, res.LowerBound())
	}
	if *verify {
		if err := core.VerifyLambSet(f, orders, res.Lambs); err != nil {
			return err
		}
		fmt.Fprintln(stderr, "verification: OK")
	}
	if *draw {
		pic, err := viz.Render(f, res.Lambs, viz.Marks{})
		if err != nil {
			fmt.Fprintln(stderr, "lambfind: -draw:", err)
		} else {
			fmt.Fprint(stderr, pic)
		}
	}
	for _, c := range res.Lambs {
		fmt.Fprintln(stdout, strings.Trim(c.String(), "()"))
	}
	return nil
}

// computeLamb dispatches to the selected lamb algorithm, running it through
// the caller's Solver so -repeat profiles the scratch-reuse steady state.
// The result is bit-identical for any workers value.
func computeLamb(s *core.Solver, f *mesh.FaultSet, orders routing.MultiOrder, algo string, workers int) (*core.Result, error) {
	switch algo {
	case "generic":
		return core.TorusLamb(f, orders)
	case "lamb1":
		return s.Lamb1(f, orders, core.WithWorkers(workers))
	case "lamb2":
		return s.Lamb2(f, orders, core.ApproxWVC, core.WithWorkers(workers))
	case "exact":
		return s.ExactLamb(f, orders, core.WithWorkers(workers))
	default:
		return nil, fmt.Errorf("unknown -algo %q", algo)
	}
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(fh); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// openFaults returns the starting fault set: the -load file's, or an empty
// one on the -mesh network (a torus with -torus).
func openFaults(load, meshSpec string, torus bool) (*mesh.FaultSet, error) {
	if load != "" {
		fh, err := os.Open(load)
		if err != nil {
			return nil, err
		}
		defer fh.Close()
		f, err := mesh.ReadFaults(fh)
		if err != nil {
			return nil, err
		}
		// A full mesh's grid is the ring T_1(N): solving it would silently
		// answer for a different network.
		if tag := f.Topology().Tag(); tag == "fullmesh" {
			return nil, fmt.Errorf("%s: lambfind does not solve the %s topology (want mesh, torus, or hypercube)", load, tag)
		}
		return f, nil
	}
	widths, err := mesh.ParseWidths(meshSpec)
	if err != nil {
		return nil, err
	}
	family := "mesh"
	if torus {
		family = "torus"
	}
	t, err := mesh.NewTopology(family, widths)
	if err != nil {
		return nil, err
	}
	return mesh.NewFaultSetOn(t), nil
}

// loadFaults adds the -faults list ("(9,1);(11,6)", '#' starts a comment)
// to f; the whole list is validated before any fault is added.
func loadFaults(f *mesh.FaultSet, inline string) error {
	var nodes []mesh.Coord
	for _, spec := range strings.Split(inline, ";") {
		spec = strings.TrimSpace(spec)
		if spec == "" || strings.HasPrefix(spec, "#") {
			continue
		}
		c, err := mesh.ParseCoord(spec)
		if err != nil {
			return err
		}
		nodes = append(nodes, c)
	}
	if err := mesh.ValidateFaults(f.Topology(), nodes, nil); err != nil {
		return err
	}
	f.AddNodes(nodes...)
	return nil
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
