package main

import (
	"bufio"
	"math/bits"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// exactCap is how many samples a hist keeps verbatim. A window with fewer
// ops gives exact quantiles; beyond it the buckets answer.
const exactCap = 1 << 12

// hist is a bounded latency recorder: up to exactCap samples verbatim,
// and every sample in a fixed-size log-linear histogram whose values below
// 128 ns get one bucket each and larger values 128 buckets per power of two
// (a bucket is at most 1/128 of its lower bound wide). Its size does not
// depend on the number of samples, which keeps the benchmark's own memory
// out of peak_rss_mb.
type hist struct {
	counts [64 * 128]int64
	n      int64
	exact  []int64
}

func histIndex(v int64) int {
	if v < 128 {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 8
	return (shift+1)*128 + int(v>>shift) - 128
}

// histBucket returns the lower bound and width of bucket i.
func histBucket(i int) (lo, width float64) {
	if i < 256 {
		return float64(i), 1
	}
	shift := i/128 - 1
	sub := int64(i%128 + 128)
	return float64(sub << shift), float64(int64(1) << shift)
}

func (h *hist) add(d time.Duration) {
	if h.n == int64(len(h.exact)) && len(h.exact) < exactCap {
		h.exact = append(h.exact, int64(d))
	}
	h.counts[histIndex(int64(d))]++
	h.n++
}

// weighted is a latency value with a sample count.
type weighted struct {
	v float64
	n int64
}

// appendWeighted appends h's samples scaled by f: the verbatim samples
// when h holds all of them, else one entry per nonempty bucket at its
// midpoint.
func (h *hist) appendWeighted(dst []weighted, f float64) []weighted {
	if h.n == int64(len(h.exact)) {
		for _, v := range h.exact {
			dst = append(dst, weighted{float64(v) * f, 1})
		}
		return dst
	}
	for i, c := range h.counts {
		if c > 0 {
			lo, width := histBucket(i)
			dst = append(dst, weighted{(lo + width/2) * f, c})
		}
	}
	return dst
}

// weightedQuantile interpolates the q-quantile of ws (0 when empty); ws is
// reordered.
func weightedQuantile(ws []weighted, q float64) float64 {
	var n int64
	for _, w := range ws {
		n += w.n
	}
	if n == 0 {
		return 0
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].v < ws[j].v })
	// Interpolate linearly between the order statistics around rank
	// q*(n-1), as for a plain sorted sample.
	pos := q * float64(n-1)
	r := int64(pos)
	lo := rankValue(ws, r)
	if r+1 >= n {
		return lo
	}
	return lo + (pos-float64(r))*(rankValue(ws, r+1)-lo)
}

// rankValue returns the value of 0-based rank r in sorted ws.
func rankValue(ws []weighted, r int64) float64 {
	var cum int64
	for _, w := range ws {
		cum += w.n
		if r < cum {
			return w.v
		}
	}
	return ws[len(ws)-1].v
}

// median returns the median of xs (0 when empty); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never calls).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process high-water mark (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	return procStatusKB("/proc/self/status", "VmHWM:")
}

func procStatusKB(path, key string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, key) {
			continue
		}
		fields := strings.Fields(line[len(key):])
		if len(fields) == 0 {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, os.ErrNotExist
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
