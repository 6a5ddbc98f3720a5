package lambmesh_test

import (
	"fmt"

	"lambmesh"
)

// The worked example of the paper's Section 5: a 12x12 mesh with three
// faults needs exactly two lambs.
func ExampleFindLambSet() {
	m, _ := lambmesh.NewMesh(12, 12)
	faults := lambmesh.NewFaultSet(m)
	faults.AddNodes(lambmesh.C(9, 1), lambmesh.C(11, 6), lambmesh.C(10, 10))

	res, _ := lambmesh.FindLambSet(faults, lambmesh.TwoRoundXY())
	fmt.Println(res.Lambs)
	fmt.Println(lambmesh.VerifyLambSet(faults, lambmesh.TwoRoundXY(), res.Lambs))
	// Output:
	// [(11,10) (10,11)]
	// <nil>
}

// Routing between survivors: two rounds of XY, at most three turns.
func ExampleChooseRoute() {
	m, _ := lambmesh.NewMesh(8, 8)
	faults := lambmesh.NewFaultSet(m)
	faults.AddNode(lambmesh.C(4, 0))

	oracle := lambmesh.NewOracle(faults)
	route, ok := lambmesh.ChooseRoute(oracle, lambmesh.TwoRoundXY(),
		lambmesh.C(0, 0), lambmesh.C(7, 0), nil)
	fmt.Println(ok, route.Hops(), "hops,", route.Turns(), "turns")
	// Output:
	// true 9 hops, 2 turns
}

// A torus rescues nodes a mesh cannot (Section 7).
func ExampleFindLambSet_torus() {
	torus, _ := lambmesh.NewTorus(6, 6)
	faults := lambmesh.NewFaultSet(torus)
	faults.AddNodes(lambmesh.C(1, 0), lambmesh.C(0, 1), lambmesh.C(1, 1))

	res, _ := lambmesh.FindLambSet(faults, lambmesh.TwoRoundXY())
	fmt.Println("lambs needed:", res.NumLambs())
	// Output:
	// lambs needed: 0
}

// Keeping lamb sets monotone across fault arrivals (Section 1's
// roll-back/reconfigure loop).
func ExampleReconfigurer() {
	m, _ := lambmesh.NewMesh(12, 12)
	rec, _ := lambmesh.NewReconfigurer(m, lambmesh.TwoRoundXY(), true)

	res, _ := rec.AddFaults([]lambmesh.Coord{
		lambmesh.C(9, 1), lambmesh.C(11, 6), lambmesh.C(10, 10),
	}, nil)
	fmt.Println("generation", rec.Generation(), "lambs", res.Lambs)

	res, _ = rec.AddFaults([]lambmesh.Coord{lambmesh.C(4, 4)}, nil)
	fmt.Println("generation", rec.Generation(), "lambs", res.Lambs)
	// Output:
	// generation 1 lambs [(11,10) (10,11)]
	// generation 2 lambs [(11,10) (10,11)]
}
