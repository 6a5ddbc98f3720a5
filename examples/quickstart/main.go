// Quickstart: find a lamb set on a small faulty mesh, verify it, and route
// between survivors.
//
//	go run ./examples/quickstart
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"lambmesh"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// An 8x8 mesh with three faulty nodes. Two of them cut off the corner
	// (0,0): it is still good, but no dimension-ordered route can reach
	// it, so it will become a lamb.
	m, err := lambmesh.NewMesh(8, 8)
	if err != nil {
		return err
	}
	faults := lambmesh.NewFaultSet(m)
	faults.AddNodes(lambmesh.C(1, 0), lambmesh.C(0, 1), lambmesh.C(5, 2))

	// Two rounds of XY routing — two virtual channels, deadlock-free.
	orders := lambmesh.TwoRoundXY()

	res, err := lambmesh.FindLambSet(faults, orders)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "mesh: %v, faults: %d\n", m, faults.Count())
	fmt.Fprintf(w, "lambs: %v (%d nodes sacrificed, %d survivors)\n",
		res.Lambs, res.NumLambs(), res.Survivors(faults))

	// The library can prove the result correct.
	if err := lambmesh.VerifyLambSet(faults, orders, res.Lambs); err != nil {
		return err
	}
	fmt.Fprintln(w, "verified: every survivor reaches every survivor in 2 rounds")

	// Route between two survivors: at most k*d-1 = 3 turns, always.
	oracle := lambmesh.NewOracle(faults)
	src, dst := lambmesh.C(2, 0), lambmesh.C(7, 7)
	route, ok := lambmesh.ChooseRoute(oracle, orders, src, dst, nil)
	if !ok {
		return errors.New("survivors must be routable")
	}
	fmt.Fprintf(w, "route %v -> %v: %d hops, %d turns, via %v\n",
		src, dst, route.Hops(), route.Turns(), route.Vias)
	return nil
}
