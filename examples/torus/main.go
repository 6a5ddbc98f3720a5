// Torus demonstrates the Section 7 extensions: the lamb method on a torus
// (wrap-around links), on a binary hypercube, the Topology interface that
// unifies the network families, per-node values, and predetermined lambs.
//
//	go run ./examples/torus
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"strings"

	"lambmesh"
)

func main() {
	for _, demo := range []func(io.Writer) error{
		torusDemo, hypercubeDemo, topologyDemo, valuesDemo, predeterminedDemo,
	} {
		if err := demo(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}

// torusDemo: the same fault pattern that forces a lamb on a mesh needs none
// on a torus, because wrap-around links give the cut-off corner a way out.
func torusDemo(w io.Writer) error {
	fmt.Fprintln(w, "== torus vs mesh ==")
	faultsFor := func(m *lambmesh.Mesh) *lambmesh.FaultSet {
		f := lambmesh.NewFaultSet(m)
		f.AddNodes(lambmesh.C(1, 0), lambmesh.C(0, 1), lambmesh.C(1, 1))
		return f
	}
	mm, err := lambmesh.NewMesh(6, 6)
	if err != nil {
		return err
	}
	meshRes, err := lambmesh.FindLambSet(faultsFor(mm), lambmesh.TwoRoundXY())
	if err != nil {
		return err
	}
	tm, err := lambmesh.NewTorus(6, 6)
	if err != nil {
		return err
	}
	torusRes, err := lambmesh.FindLambSet(faultsFor(tm), lambmesh.TwoRoundXY())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "mesh  M_2(6):  corner (0,0) cut off -> lambs %v\n", meshRes.Lambs)
	fmt.Fprintf(w, "torus T_2(6):  wrap links rescue it -> lambs %v\n\n", torusRes.Lambs)
	return nil
}

// hypercubeDemo: a hypercube is the width-2 mesh M_d(2), so the fast
// rectangular algorithm applies directly.
func hypercubeDemo(w io.Writer) error {
	fmt.Fprintln(w, "== hypercube Q_5 ==")
	m, err := lambmesh.NewHypercube(5)
	if err != nil {
		return err
	}
	f := lambmesh.RandomNodeFaults(m, 3, rand.New(rand.NewSource(7)))
	orders := lambmesh.UniformAscending(5, 2)
	res, err := lambmesh.FindLambSet(f, orders)
	if err != nil {
		return err
	}
	if err := lambmesh.VerifyLambSet(f, orders, res.Lambs); err != nil {
		return err
	}
	fmt.Fprintf(w, "%v with faults %v -> lambs %v (verified)\n\n",
		m, f.SortedNodeFaults(), res.Lambs)
	return nil
}

// topologyDemo: every network family sits behind the same Topology
// interface — channel layout, distance, and a serialization format that
// round-trips fault configurations between tools.
func topologyDemo(w io.Writer) error {
	fmt.Fprintln(w, "== the Topology interface ==")
	mm, err := lambmesh.NewMesh(6, 6)
	if err != nil {
		return err
	}
	tm, err := lambmesh.NewTorus(6, 6)
	if err != nil {
		return err
	}
	hc, err := lambmesh.NewHypercube(5)
	if err != nil {
		return err
	}
	km, err := lambmesh.NewFullMesh(12)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(11))
	for _, topo := range []lambmesh.Topology{mm, tm, hc, km} {
		g := topo.Grid()
		a, b := g.CoordOf(0), g.CoordOf(g.Nodes()-1)
		f := lambmesh.NewFaultSetOn(topo)
		f.AddNode(g.CoordOf(rng.Int63n(g.Nodes())))
		var buf strings.Builder
		if err := lambmesh.WriteFaults(&buf, f); err != nil {
			return err
		}
		header := ""
		for _, line := range strings.Split(buf.String(), "\n") {
			if line != "" && !strings.HasPrefix(line, "#") {
				header = line
				break
			}
		}
		fmt.Fprintf(w, "%-9s %-8v  channels %4d  dist(%v,%v) = %d  serialized %q\n",
			topo.Tag(), topo, topo.NumChannels(), a, b, topo.Distance(a, b), header)
	}
	fmt.Fprintln(w)
	return nil
}

// valuesDemo: nodes carry utilities; the solver sacrifices cheap nodes.
func valuesDemo(w io.Writer) error {
	fmt.Fprintln(w, "== per-node values ==")
	m, err := lambmesh.NewMesh(12, 12)
	if err != nil {
		return err
	}
	f := lambmesh.NewFaultSet(m)
	f.AddNodes(lambmesh.C(9, 1), lambmesh.C(11, 6), lambmesh.C(10, 10))
	// Default choice would sacrifice (11,10) and (10,11); make them
	// precious (say, all 100 processors good) and the alternative sets
	// nearly worthless.
	values := map[int64]int64{
		m.Index(lambmesh.C(11, 10)): 100,
		m.Index(lambmesh.C(10, 11)): 100,
		m.Index(lambmesh.C(10, 1)):  0,
		m.Index(lambmesh.C(11, 1)):  0,
		m.Index(lambmesh.C(9, 0)):   0,
	}
	res, err := lambmesh.FindLambSet(f, lambmesh.TwoRoundXY(), lambmesh.WithValues(values))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "with values, the lamb set shifts to %v\n\n", res.Lambs)
	return nil
}

// predeterminedDemo: reconfiguration after new faults can keep the old
// lambs in place.
func predeterminedDemo(w io.Writer) error {
	fmt.Fprintln(w, "== predetermined lambs across reconfiguration ==")
	m, err := lambmesh.NewMesh(12, 12)
	if err != nil {
		return err
	}
	f := lambmesh.NewFaultSet(m)
	f.AddNodes(lambmesh.C(9, 1), lambmesh.C(11, 6), lambmesh.C(10, 10))
	first, err := lambmesh.FindLambSet(f, lambmesh.TwoRoundXY())
	if err != nil {
		return err
	}
	// A new fault arrives; recompute, keeping the previous lambs lambs.
	f2 := f.Clone()
	f2.AddNode(lambmesh.C(4, 4))
	second, err := lambmesh.FindLambSet(f2, lambmesh.TwoRoundXY(),
		lambmesh.WithPredetermined(first.Lambs))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "first lamb set:  %v\n", first.Lambs)
	fmt.Fprintf(w, "after new fault: %v (superset, as Section 7 suggests)\n", second.Lambs)
	return nil
}
