// Bluegene runs the scenario that motivated the paper: a 32x32x32 3D mesh
// (the initial Blue Gene organization) with a few percent of random node
// faults, two virtual channels, and two rounds of XYZ routing. It finds the
// lamb set, verifies it, and compares against the paper's headline numbers
// (average 67.6 lambs at 3% faults — under 7% of the faults and 0.21% of
// the machine).
//
//	go run ./examples/bluegene [-percent 3.0] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"os"
	"time"

	"lambmesh"
)

func main() {
	percent := flag.Float64("percent", 3.0, "percentage of random node faults")
	seed := flag.Int64("seed", 1, "fault placement seed")
	flag.Parse()
	if err := run(os.Stdout, *percent, *seed); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, percent float64, seed int64) error {
	m, err := lambmesh.NewCube(3, 32)
	if err != nil {
		return err
	}
	numFaults := int(math.Round(float64(m.Nodes()) * percent / 100))
	faults := lambmesh.RandomNodeFaults(m, numFaults, rand.New(rand.NewSource(seed)))
	orders := lambmesh.TwoRoundXYZ()

	fmt.Fprintf(w, "machine:  %v (%d nodes, bisection width %d)\n", m, m.Nodes(), m.BisectionWidth())
	fmt.Fprintf(w, "faults:   %d random nodes (%.2f%%)\n", numFaults, percent)

	start := time.Now()
	res, err := lambmesh.FindLambSet(faults, orders)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Fprintf(w, "lambs:    %d  (%.3f%% of nodes, %.1f%% of faults)\n",
		res.NumLambs(),
		100*float64(res.NumLambs())/float64(m.Nodes()),
		100*float64(res.NumLambs())/float64(numFaults))
	fmt.Fprintf(w, "survivors: %d nodes keep full service\n", res.Survivors(faults))
	fmt.Fprintf(w, "algebra:  %d SESs, %d DESs, %d/%d relevant, cover weight %d\n",
		res.Stats.NumSES, res.Stats.NumDES,
		res.Stats.RelevantSES, res.Stats.RelevantDES, res.Stats.CoverWeight)
	fmt.Fprintf(w, "time:     %.3fs (independent of mesh size; polynomial in faults)\n", elapsed.Seconds())

	if err := lambmesh.VerifyLambSet(faults, orders, res.Lambs); err != nil {
		return err
	}
	fmt.Fprintln(w, "verified: all survivors mutually reachable in 2 rounds of XYZ")
	if percent == 3.0 {
		fmt.Fprintln(w, "\npaper reference (Figure 18): average 67.6 lambs over 1000 trials,")
		fmt.Fprintln(w, "0.206% of nodes, 6.88% additional damage.")
	}

	if res.NumLambs() > 0 {
		fmt.Fprintf(w, "\nfirst lambs: %v\n", res.Lambs[:min(5, len(res.Lambs))])
	}
	return nil
}
