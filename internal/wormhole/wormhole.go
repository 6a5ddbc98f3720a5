// Package wormhole is a flit-level, cycle-based simulator of wormhole
// routing on faulty meshes — the machine model the lamb method of Ho &
// Stockmeyer (IPDPS 2002) is designed for.
//
// Messages are divided into flits that follow the head flit in a pipeline;
// when the head blocks, the worm stalls in place across several routers
// (Dally & Seitz [8]). Each directed physical link carries one flit per
// cycle and multiplexes a configurable number of virtual channels, each
// with its own small FIFO buffer. Routes are k-round dimension-ordered:
// round t's hops use virtual channel t, which is exactly the discipline
// that makes k-round routing deadlock-free. Running the same traffic with
// fewer virtual channels than rounds demonstrates the deadlocks the scheme
// exists to prevent; the simulator detects them with a stall watchdog.
package wormhole

import (
	"fmt"
	"math"
	"slices"

	"lambmesh/internal/mesh"
)

// Config sets the router microarchitecture.
type Config struct {
	// VirtualChannels per directed physical link. The paper's Blue Gene
	// constraint is 2 (requirement iii of Section 1).
	VirtualChannels int
	// BufferDepth is the per-VC FIFO capacity in flits.
	BufferDepth int
	// StallCycles without any flit movement before declaring deadlock.
	StallCycles int
	// MaxCycles hard-stops the simulation.
	MaxCycles int
}

// DefaultConfig: 2 VCs, 2-flit buffers, generous watchdog.
func DefaultConfig() Config {
	return Config{VirtualChannels: 2, BufferDepth: 2, StallCycles: 1000, MaxCycles: 1_000_000}
}

// Hop is one link traversal on a message route: the dense id of the link
// (the topology's ChannelID; ChannelLink recovers the link) and the virtual
// channel it uses (the round number, clamped to the available VCs).
type Hop struct {
	Ch, VC int32
}

// Message is a wormhole packet.
type Message struct {
	ID       int
	Src, Dst mesh.Coord
	Length   int // flits
	InjectAt int // earliest injection cycle
	Hops     []Hop

	// Results, valid after Run.
	Delivered  bool
	DoneCycle  int
	StartCycle int // cycle the head flit entered the network
	PathTurns  int
	PathHops   int
	remaining  int // flits still at the source
	ejected    int // flits consumed at the destination
	headHop    int // furthest hop the head has entered; -1 before injection
	// tail bounds the occupied span from below: once remaining == 0, no hop
	// below tail holds flits or will again. It only moves up, so stepping
	// walks [tail, headHop] and the tail-passed test is amortized O(1).
	tail        int
	injectedAny bool
	lost        bool // endpoint died mid-run; packet will never deliver

	// hops is the runtime state of each hop: the channel and dense VC ids
	// (precomputed by bindMessage, so the per-cycle loops index flat
	// arrays) and the flits buffered there.
	// NewNetwork carves every message's hops from one arena.
	hops []hopState
}

// hopState is one hop of a bound message: its physical channel id, its
// virtual channel id, and the flits currently in that VC's buffer. Packing
// the three keeps a worm's step on consecutive memory.
type hopState struct {
	ch, vc, buf int32
}

// Latency returns delivery latency in cycles (delivery - earliest inject).
func (m *Message) Latency() int { return m.DoneCycle - m.InjectAt }

// Network simulates a set of messages over a faulty mesh.
//
// Channel state is dense: a directed physical channel has the topology's
// ChannelID ((nodeIndex*d + dim)*2 + dirBit on meshes and tori; delta-block
// layout on full meshes) and a virtual channel id chan*VCs + vc, so
// the per-cycle hot loops index flat arrays with ids precomputed per hop —
// no map hashing, no per-cycle clearing (channel occupancy uses a cycle
// stamp). Memory is O(N d VCs), fine for the mesh sizes a flit-level
// simulation can cover anyway.
//
// A cycle costs work only for the occupied span of each released worm:
// per-hop state is packed into one arena allocated by NewNetwork, each worm
// steps only the hops between its tail and its head, and Run walks a
// compacted list of released, undelivered messages instead of every
// message (BenchmarkWormholeRun in BENCH_lamb.json).
type Network struct {
	cfg    Config
	faults *mesh.FaultSet
	msgs   []*Message

	vcOwner   []int // per VC id: owning message ID, or -1
	vcFlits   []int // per VC id: buffered flits
	chanStamp []int // per channel id: last stamp the channel carried a flit
	stamp     int   // current cycle's stamp (starts at 1)
	busy      []int // per channel id: cycles it carried a flit
	vcBusy    []int // per VC id: cycles it carried a flit

	// runOrder holds the indexes of the messages with hops, sorted by
	// (InjectAt, index) on Run's first call: its release order, kept for
	// later Runs since no message's InjectAt changes. runAct is
	// Run's list of released, undelivered message indexes in ascending
	// order, so walking it from a rotated start visits messages exactly as
	// a rotated scan of every message would.
	runOrder  []int32
	runAct    []int32
	runSorted bool

	// bindSeen/bindStamp back route validation in bindMessage: a (link,VC)
	// pair is marked with the current bind stamp so reuse within one message
	// is caught without clearing the array between messages.
	bindSeen  []int
	bindStamp int

	// ejectedTotal counts every flit ever consumed at a destination. Unlike
	// per-message ejected counters it is monotone — retransmissions reset a
	// message's counter but not this one — so the live engine's throughput
	// windows stay truthful across mid-run reconfigurations.
	ejectedTotal int

	// Result summary, valid after Run.
	Cycles     int
	Deadlocked bool
	MovesTotal int
}

// NewNetwork creates a simulator over the faulty mesh for the given
// messages. Message routes must already avoid faults (build them with
// RouteMessage); the constructor rejects routes through faults or over ids
// that name no link, and routes that reuse a (link, VC) pair, which would
// self-deadlock in hardware.
func NewNetwork(f *mesh.FaultSet, cfg Config, msgs []*Message) (*Network, error) {
	if cfg.VirtualChannels < 1 || cfg.BufferDepth < 1 {
		return nil, fmt.Errorf("wormhole: need at least 1 VC and 1-flit buffers")
	}
	if cfg.StallCycles < 1 {
		cfg.StallCycles = 1000
	}
	if cfg.MaxCycles < 1 {
		cfg.MaxCycles = 1_000_000
	}
	numChans := f.Topology().NumChannels()
	if numChans*cfg.VirtualChannels > math.MaxInt32 {
		return nil, fmt.Errorf("wormhole: %d channels x %d VCs overflow the 32-bit hop state", numChans, cfg.VirtualChannels)
	}
	n := &Network{
		cfg:       cfg,
		faults:    f,
		msgs:      msgs,
		vcOwner:   make([]int, numChans*cfg.VirtualChannels),
		vcFlits:   make([]int, numChans*cfg.VirtualChannels),
		chanStamp: make([]int, numChans),
		busy:      make([]int, numChans),
		vcBusy:    make([]int, numChans*cfg.VirtualChannels),
		runOrder:  make([]int32, 0, len(msgs)),
		runAct:    make([]int32, 0, len(msgs)),
	}
	for i := range n.vcOwner {
		n.vcOwner[i] = -1
	}
	n.bindSeen = make([]int, numChans*cfg.VirtualChannels)
	total := 0
	for _, msg := range msgs {
		total += len(msg.Hops)
	}
	arena := make([]hopState, 0, total)
	for _, msg := range msgs {
		msg.hops = carve(&arena, len(msg.Hops)) // a longer reroute moves out
		if err := n.bindMessage(msg); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// bindMessage validates msg's route against the current fault set and
// (re)builds its dense per-hop channel ids and runtime state. NewNetwork
// calls it once per message; the live engine calls it again when a rerouted
// worm re-enters the network with fresh hops after a reconfiguration.
func (n *Network) bindMessage(msg *Message) error {
	if msg.Length < 1 {
		return fmt.Errorf("wormhole: message %d has no flits", msg.ID)
	}
	n.bindStamp++
	msg.hops = slices.Grow(msg.hops[:0], len(msg.Hops))[:len(msg.Hops)]
	vcs := int32(n.cfg.VirtualChannels)
	for hi, h := range msg.Hops {
		if h.VC < 0 || h.VC >= vcs {
			return fmt.Errorf("wormhole: message %d uses VC %d of %d", msg.ID, h.VC, vcs)
		}
		if !n.faults.ChannelUsable(int(h.Ch)) {
			return fmt.Errorf("wormhole: message %d routed over unusable link %v", msg.ID, n.link(h.Ch))
		}
		v := h.Ch*vcs + h.VC
		if n.bindSeen[v] == n.bindStamp {
			return fmt.Errorf("wormhole: message %d reuses link %v on VC %d (self-deadlock)", msg.ID, n.link(h.Ch), h.VC)
		}
		n.bindSeen[v] = n.bindStamp
		msg.hops[hi] = hopState{ch: h.Ch, vc: v}
	}
	msg.remaining = msg.Length
	msg.ejected = 0
	msg.headHop = -1
	msg.tail = 0
	msg.injectedAny = false
	return nil
}

// removeWorm pulls every in-flight flit of m out of the network and frees
// the virtual channels it owns, returning the number of flits dropped. The
// live engine calls this when a new fault kills a worm mid-flight; the
// message's source-side state is untouched so the caller decides between
// retransmission and loss.
func (n *Network) removeWorm(m *Message) int {
	dropped := 0
	for i := range m.hops {
		h := &m.hops[i]
		if h.buf > 0 {
			n.vcFlits[h.vc] -= int(h.buf)
			dropped += int(h.buf)
			h.buf = 0
		}
		if n.vcOwner[h.vc] == m.ID {
			n.vcOwner[h.vc] = -1
		}
	}
	m.headHop = -1
	m.tail = 0
	return dropped
}

// link names channel ch in an error message, by its link when in range.
func (n *Network) link(ch int32) any {
	if t := n.faults.Topology(); ch >= 0 && int(ch) < t.NumChannels() {
		return t.ChannelLink(int(ch))
	}
	return fmt.Sprintf("channel %d", ch)
}

// Reset rewinds the network and every message to the pre-Run state, so the
// same workload can run again (the benchmarks measure steady-state cost this
// way). Route-shape fields (PathHops, PathTurns) are properties of the
// routes and survive.
func (n *Network) Reset() {
	for i := range n.vcOwner {
		n.vcOwner[i] = -1
	}
	clear(n.vcFlits)
	clear(n.chanStamp)
	clear(n.busy)
	clear(n.vcBusy)
	n.stamp = 0
	n.ejectedTotal = 0
	n.Cycles, n.Deadlocked, n.MovesTotal = 0, false, 0
	for _, m := range n.msgs {
		m.Delivered = false
		m.DoneCycle = 0
		m.StartCycle = 0
		m.remaining = m.Length
		m.ejected = 0
		for i := range m.hops {
			m.hops[i].buf = 0
		}
		m.headHop = -1
		m.tail = 0
		m.injectedAny = false
		m.lost = false
	}
}

// LinkUtilization returns the mean and maximum fraction of cycles that the
// physical channels touched by the workload spent carrying flits — the
// congestion signal behind the Section 2.1 intermediate-choice heuristic.
func (n *Network) LinkUtilization() (mean, max float64) {
	if n.Cycles == 0 {
		return 0, 0
	}
	var sum float64
	touched := 0
	for _, b := range n.busy {
		if b == 0 {
			continue
		}
		touched++
		u := float64(b) / float64(n.Cycles)
		sum += u
		if u > max {
			max = u
		}
	}
	if touched == 0 {
		return 0, 0
	}
	return sum / float64(touched), max
}

// VCUtilizationInto fills meanPerVC[v] (and maxPerVC[v]) with the mean
// (max) fraction of the last `cycles` cycles that virtual channel v of the
// physical channels touched by the workload spent carrying flits. Both
// slices must have length cfg.VirtualChannels; the caller owns them, so the
// traffic engine's measurement loop stays allocation-free. Channels a VC
// never touched are excluded from its mean, mirroring LinkUtilization.
func (n *Network) VCUtilizationInto(cycles int, meanPerVC, maxPerVC []float64) {
	for v := 0; v < n.cfg.VirtualChannels; v++ {
		meanPerVC[v], maxPerVC[v] = 0, 0
	}
	if cycles <= 0 {
		return
	}
	vcs := n.cfg.VirtualChannels
	for v := 0; v < vcs; v++ {
		sum, touched := 0.0, 0
		for id := v; id < len(n.vcBusy); id += vcs {
			b := n.vcBusy[id]
			if b == 0 {
				continue
			}
			touched++
			u := float64(b) / float64(cycles)
			sum += u
			if u > maxPerVC[v] {
				maxPerVC[v] = u
			}
		}
		if touched > 0 {
			meanPerVC[v] = sum / float64(touched)
		}
	}
}

// Run simulates until every message is delivered, a deadlock is detected,
// or MaxCycles elapse. It returns an error only for malformed setups;
// deadlock is reported via the Deadlocked field (it is an expected outcome
// of under-provisioned configurations).
//
// There is no source queueing: a message is runnable from its InjectAt
// cycle on. Each cycle serves the released, undelivered messages in
// message order rotated by the cycle (long-run fairness); within a
// message, flits advance head-first so a pipeline compresses and refills
// like hardware.
func (n *Network) Run() error {
	if !n.runSorted {
		for i, m := range n.msgs {
			if len(m.Hops) > 0 {
				n.runOrder = append(n.runOrder, int32(i))
			}
		}
		// Every InjectAt <= 0 releases at cycle 0, so clamping keeps each
		// cycle's batch in ascending index order.
		slices.SortStableFunc(n.runOrder, func(a, b int32) int {
			return max(n.msgs[a].InjectAt, 0) - max(n.msgs[b].InjectAt, 0)
		})
		n.runSorted = true
	}
	active := len(n.msgs)
	for _, m := range n.msgs {
		if len(m.Hops) == 0 {
			// Degenerate self-delivery: no network involvement.
			m.Delivered = true
			m.DoneCycle = m.InjectAt
			m.StartCycle = m.InjectAt
			active--
		}
	}
	act := n.runAct[:0]
	next := 0 // next runOrder position to release
	stall := 0
	for cycle := 0; active > 0 && cycle < n.cfg.MaxCycles; cycle++ {
		end := next
		for end < len(n.runOrder) && n.msgs[n.runOrder[end]].InjectAt <= cycle {
			end++
		}
		act = mergeAscending(act, n.runOrder[next:end])
		next = end

		n.stamp++ // invalidates every channel-occupancy mark from the last cycle
		moves := 0
		start, _ := slices.BinarySearch(act, int32(cycle%len(n.msgs)))
		for _, i := range act[start:] {
			moves += n.stepMessage(n.msgs[i], cycle)
		}
		for _, i := range act[:start] {
			moves += n.stepMessage(n.msgs[i], cycle)
		}
		n.MovesTotal += moves
		n.Cycles = cycle + 1

		w := 0
		for _, i := range act {
			if m := n.msgs[i]; m.ejected == m.Length {
				m.Delivered = true
				m.DoneCycle = cycle
				active--
				continue
			}
			act[w] = i
			w++
		}
		act = act[:w]

		// A zero-move cycle delivered nothing, so act still holds every
		// released message: it stalls only if one is waiting.
		if moves == 0 && len(act) > 0 {
			stall++
			if stall >= n.cfg.StallCycles {
				n.Deadlocked = true
				return nil
			}
		} else {
			stall = 0
		}
	}
	return nil
}

// mergeAscending merges the ascending batch into the ascending act in
// place, from the back; act has room for every message.
func mergeAscending(act, batch []int32) []int32 {
	i, j := len(act)-1, len(batch)-1
	act = act[:len(act)+len(batch)]
	for k := len(act) - 1; j >= 0; k-- {
		if i >= 0 && act[i] > batch[j] {
			act[k] = act[i]
			i--
		} else {
			act[k] = batch[j]
			j--
		}
	}
	return act
}

// stepMessage advances m by one cycle: ejection at the destination, then
// the in-network flits head-first over the occupied span [tail, headHop],
// then injection from the source. It returns the number of flit moves.
func (n *Network) stepMessage(m *Message, cycle int) int {
	moves := 0
	hops := m.hops
	last := len(hops) - 1
	depth := n.cfg.BufferDepth

	// Ejection: the destination consumes one flit per cycle.
	if hops[last].buf > 0 {
		hops[last].buf--
		n.vcFlits[hops[last].vc]--
		m.ejected++
		n.ejectedTotal++
		moves++
		n.maybeRelease(m, last)
	}

	// Advance in-network flits head-first. maybeRelease may raise m.tail,
	// which ends the walk: every hop below it is empty.
	for i := min(m.headHop, last-1); i >= m.tail; i-- {
		cur := &hops[i]
		if cur.buf == 0 {
			continue
		}
		nxt := &hops[i+1]
		owner := n.vcOwner[nxt.vc]
		isHead := i == m.headHop
		if isHead {
			if owner != -1 && owner != m.ID {
				continue
			}
		} else if owner != m.ID {
			continue
		}
		if n.vcFlits[nxt.vc] >= depth || n.chanStamp[nxt.ch] == n.stamp {
			continue
		}
		n.vcOwner[nxt.vc] = m.ID
		n.vcFlits[nxt.vc]++
		nxt.buf++
		cur.buf--
		n.vcFlits[cur.vc]--
		n.chanStamp[nxt.ch] = n.stamp
		n.busy[nxt.ch]++
		n.vcBusy[nxt.vc]++
		if isHead {
			m.headHop = i + 1
		}
		moves++
		n.maybeRelease(m, i)
	}

	// Injection of the next flit from the source into hop 0.
	if m.remaining > 0 {
		h0 := &hops[0]
		owner := n.vcOwner[h0.vc]
		ok := owner == m.ID || (owner == -1 && !m.injectedAny)
		if ok && n.vcFlits[h0.vc] < depth && n.chanStamp[h0.ch] != n.stamp {
			n.vcOwner[h0.vc] = m.ID
			n.vcFlits[h0.vc]++
			h0.buf++
			m.remaining--
			n.chanStamp[h0.ch] = n.stamp
			n.busy[h0.ch]++
			n.vcBusy[h0.vc]++
			if !m.injectedAny {
				m.injectedAny = true
				m.headHop = 0
				m.StartCycle = cycle
			}
			moves++
		}
	}
	return moves
}

// settleTail raises m.tail past the empty hops at the bottom of the worm
// once the source is drained, and returns it: every hop below it is empty
// for good. Each hop is passed at most once per binding, so the tail scans
// of a worm's whole life cost O(hops).
func (m *Message) settleTail() int {
	if m.remaining == 0 {
		for m.tail < len(m.hops) && m.hops[m.tail].buf == 0 {
			m.tail++
		}
	}
	return m.tail
}

// maybeRelease frees the VC at hop i once the tail has passed it: the
// buffer is empty and no more of the message's flits can arrive there.
func (n *Network) maybeRelease(m *Message, i int) {
	if m.remaining > 0 || m.hops[i].buf != 0 || m.settleTail() <= i {
		return
	}
	v := m.hops[i].vc
	if n.vcOwner[v] == m.ID && n.vcFlits[v] == 0 {
		n.vcOwner[v] = -1
	}
}
