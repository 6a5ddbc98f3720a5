package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// maxSpans bounds the in-memory span log; spans beyond it are counted, not
// kept.
const maxSpans = 1 << 20

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started. Parent is the index of the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer keeps spans in memory for the traced run and writes them out when
// the run ends. A nil *tracer records nothing, so workloads call it
// unconditionally and the untraced run pays one nil check per call. Its
// methods may be called from several goroutines; selfByOp and write run
// after the traced phase.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 when not recorded).
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), End: -1, Parent: parent, Op: op})
	return int32(len(t.spans) - 1)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int32) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// record adds an already-measured span: a layer's share that the program
// reports itself (such as reach.Scratch.PartitionNanos) placed at the start
// of its parent.
func (t *tracer) record(name string, parent int32, op int64, d time.Duration) {
	if t == nil || parent < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	start := t.spans[parent].Start
	t.spans = append(t.spans, span{Name: name, Start: start, End: start + int64(d), Parent: parent, Op: op})
}

// selfByOp returns, for every op that has a span called name, the summed
// self time of those spans in milliseconds: each span's duration minus the
// part covered by its direct children.
func (t *tracer) selfByOp(name string) []float64 { return t.perOp(name, true) }

// durByOp is selfByOp with whole span durations.
func (t *tracer) durByOp(name string) []float64 { return t.perOp(name, false) }

func (t *tracer) perOp(name string, self bool) []float64 {
	if t == nil {
		return nil
	}
	child := make([]int64, len(t.spans))
	if self {
		for _, s := range t.spans {
			if s.Parent >= 0 && s.End >= 0 {
				child[s.Parent] += s.End - s.Start
			}
		}
	}
	perOp := map[int64]float64{}
	var order []int64
	for i, s := range t.spans {
		if s.Name != name || s.End < 0 {
			continue
		}
		if _, ok := perOp[s.Op]; !ok {
			order = append(order, s.Op)
		}
		perOp[s.Op] += float64(s.End-s.Start-child[i]) / 1e6
	}
	out := make([]float64, 0, len(order))
	for _, op := range order {
		out = append(out, perOp[op])
	}
	return out
}

// write stores the spans as JSON lines under dir and returns the path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}
