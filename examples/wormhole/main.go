// Wormhole demonstrates the whole story end to end: faults are rolled into
// a lamb set, survivor traffic is routed with two rounds of dimension-
// ordered routing, and a flit-level simulation shows the traffic flowing
// deadlock-free when each round has its own virtual channel — and
// deadlocking when both rounds share one.
//
//	go run ./examples/wormhole [-messages 200] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"lambmesh"
	"lambmesh/internal/wormhole"
)

func main() {
	messages := flag.Int("messages", 200, "number of messages")
	seed := flag.Int64("seed", 1, "rng seed")
	flag.Parse()
	if err := run(os.Stdout, *messages, *seed); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, messages int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))

	m, err := lambmesh.NewMesh(16, 16)
	if err != nil {
		return err
	}
	faults := lambmesh.RandomNodeFaults(m, 10, rng)
	orders := lambmesh.TwoRoundXY()

	res, err := lambmesh.FindLambSet(faults, orders)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "mesh %v, %d faults -> %d lambs, %d survivors\n",
		m, faults.Count(), res.NumLambs(), res.Survivors(faults))

	oracle := lambmesh.NewOracle(faults)
	msgs, err := wormhole.GenerateTraffic(oracle, orders, res.Lambs, wormhole.TrafficSpec{
		Messages: messages, MinFlits: 4, MaxFlits: 16, InjectWindow: 100,
	}, 2, rng)
	if err != nil {
		return err
	}

	net, err := wormhole.NewNetwork(faults, wormhole.DefaultConfig(), msgs)
	if err != nil {
		return err
	}
	if err := net.Run(); err != nil {
		return err
	}
	s := wormhole.Summarize(net)
	fmt.Fprintf(w, "\n2 virtual channels (one per round):\n")
	fmt.Fprintf(w, "  delivered %d/%d in %d cycles, deadlock=%v\n", s.Delivered, s.Messages, s.Cycles, s.Deadlocked)
	fmt.Fprintf(w, "  latency avg %.1f max %d cycles; turns avg %.2f max %d (bound kd-1 = 3)\n",
		s.AvgLatency, s.MaxLatency, s.AvgTurns, s.MaxTurns)

	// The adversarial counterpart: four worms in a ring on one shared VC.
	fmt.Fprintf(w, "\n1 virtual channel shared by both rounds (adversarial 4-worm ring):\n")
	free := lambmesh.NewFaultSet(mustMesh(3, 3))
	ring := ringMessages(free.Mesh())
	net1, err := wormhole.NewNetwork(free, wormhole.Config{
		VirtualChannels: 1, BufferDepth: 1, StallCycles: 300, MaxCycles: 100000,
	}, ring)
	if err != nil {
		return err
	}
	if err := net1.Run(); err != nil {
		return err
	}
	s1 := wormhole.Summarize(net1)
	fmt.Fprintf(w, "  delivered %d/%d, deadlock=%v after %d cycles\n",
		s1.Delivered, s1.Messages, s1.Deadlocked, s1.Cycles)
	fmt.Fprintln(w, "\nThis is requirement (iii) of Section 1: k rounds need k virtual")
	fmt.Fprintln(w, "channels; with two channels the lamb method gives full connectivity.")
	return nil
}

func mustMesh(widths ...int) *lambmesh.Mesh {
	m, err := lambmesh.NewMesh(widths...)
	if err != nil {
		log.Fatal(err)
	}
	return m
}

func ringMessages(m *lambmesh.Mesh) []*wormhole.Message {
	orders := lambmesh.TwoRoundXY()
	mk := func(id int, src, via, dst lambmesh.Coord) *wormhole.Message {
		msg, err := wormhole.MessageFromRoute(m, orders, via, src, dst, id, 12, 0, 1)
		if err != nil {
			log.Fatal(err)
		}
		return msg
	}
	return []*wormhole.Message{
		mk(0, lambmesh.C(0, 0), lambmesh.C(2, 0), lambmesh.C(2, 2)),
		mk(1, lambmesh.C(2, 0), lambmesh.C(2, 2), lambmesh.C(0, 2)),
		mk(2, lambmesh.C(2, 2), lambmesh.C(0, 2), lambmesh.C(0, 0)),
		mk(3, lambmesh.C(0, 2), lambmesh.C(0, 0), lambmesh.C(2, 0)),
	}
}
