package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"time"
)

// windowLen is the length of the slices an op phase is cut into.
const windowLen = time.Second

// On a shared virtual machine the hypervisor takes vCPUs away for
// stretches of seconds: on a 2-vCPU machine /proc/stat's steal column has
// shown from 1% to over 40% of busy CPU time, changing from one second to
// the next. Time stolen from a vCPU passes on the wall clock while no
// instruction of the program runs, so raw wall-clock figures measure the
// neighbours as much as the program. Every op phase is therefore cut into
// windows of about windowLen; each window records the stolen share s of its
// busy CPU time, and its wall time and the latencies of the ops that end
// in it are scaled by 1 - s, the share of the window the vCPUs actually
// ran. On an unshared machine s is 0 and nothing changes. The correction
// reads only /proc/stat, never the ops' own timings.

// window is one slice of an op phase.
type window struct {
	wall    time.Duration
	steal   float64 // stolen share of busy CPU time in the window
	lat     hist
	visible []float64 // fault-visible samples in milliseconds, uncorrected
}

func (w *window) factor() float64 { return 1 - w.steal }

// phaseStats is what one op phase measured.
type phaseStats struct {
	attempted, failed int64

	winStart time.Time
	skipped  time.Duration // harness time inside the current window
	stat0    cpuTimes
	windows  []*window
	cur      *window
}

func newPhaseStats() *phaseStats {
	ps := &phaseStats{winStart: time.Now(), cur: &window{}}
	ps.stat0, _ = readCPUTimes()
	return ps
}

// roll closes the current window when it has lasted windowLen.
func (ps *phaseStats) roll(now time.Time, force bool) {
	if !force && now.Sub(ps.winStart) < windowLen {
		return
	}
	st, err := readCPUTimes()
	w := ps.cur
	w.wall = now.Sub(ps.winStart) - ps.skipped
	ps.skipped = 0
	if err == nil {
		w.steal = st.stealShare(ps.stat0)
	}
	ps.windows = append(ps.windows, w)
	ps.cur, ps.winStart, ps.stat0 = &window{}, now, st
}

// add records one completed op of latency d.
func (ps *phaseStats) add(d time.Duration) {
	ps.roll(time.Now(), false)
	ps.cur.lat.add(d)
}

// skip takes d of harness work out of the current window's wall time.
func (ps *phaseStats) skip(d time.Duration) { ps.skipped += d }

// addVisible records one fault-report-to-visible sample in milliseconds.
func (ps *phaseStats) addVisible(ms float64) {
	ps.cur.visible = append(ps.cur.visible, ms)
}

// finish closes the last window.
func (ps *phaseStats) finish() {
	if ps.cur.lat.n > 0 || len(ps.cur.visible) > 0 || len(ps.windows) == 0 {
		ps.roll(time.Now(), true)
	}
}

// ops counts every completed op of the phase.
func (ps *phaseStats) ops() int64 {
	var n int64
	for _, w := range ps.windows {
		n += w.lat.n
	}
	return n
}

// opsPerS is completed ops per second of steal-corrected wall time.
func (ps *phaseStats) opsPerS() float64 {
	var wall float64
	for _, w := range ps.windows {
		wall += w.wall.Seconds() * w.factor()
	}
	return ratio(float64(ps.ops()), wall)
}

// quantileMS is the steal-corrected op latency q-quantile.
func (ps *phaseStats) quantileMS(q float64) float64 {
	var ws []weighted
	for _, w := range ps.windows {
		ws = w.lat.appendWeighted(ws, w.factor())
	}
	return weightedQuantile(ws, q) / 1e6
}

// visibleP50 is the median steal-corrected fault-visible time.
func (ps *phaseStats) visibleP50() float64 {
	var xs []float64
	for _, w := range ps.windows {
		for _, v := range w.visible {
			xs = append(xs, v*w.factor())
		}
	}
	return median(xs)
}

// allVisible returns every fault-visible sample of the phase, uncorrected.
func (ps *phaseStats) allVisible() []float64 {
	var xs []float64
	for _, w := range ps.windows {
		xs = append(xs, w.visible...)
	}
	return xs
}

// meanSteal returns the wall-weighted mean steal share of the phase.
func (ps *phaseStats) meanSteal() float64 {
	var s, wall float64
	for _, w := range ps.windows {
		s += w.steal * w.wall.Seconds()
		wall += w.wall.Seconds()
	}
	return ratio(s, wall)
}

// cpuTimes is the aggregate cpu line of /proc/stat, in ticks.
type cpuTimes struct {
	busy, steal int64
}

func readCPUTimes() (cpuTimes, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return cpuTimes{}, err
	}
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}, os.ErrInvalid
	}
	var t cpuTimes
	// user nice system idle iowait irq softirq steal
	for i, f := range fields[1:9] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return cpuTimes{}, err
		}
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			t.steal = v
		default:
			t.busy += v
		}
	}
	return t, nil
}

// stealShare is the stolen share of busy-or-stolen CPU time since prev.
func (t cpuTimes) stealShare(prev cpuTimes) float64 {
	steal := float64(t.steal - prev.steal)
	return ratio(steal, float64(t.busy-prev.busy)+steal)
}
