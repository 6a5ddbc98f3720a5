package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lambmesh/internal/mesh"
)

// TestConcurrentLoad is the acceptance test for the epoch-swap design: N
// concurrent clients hammer POST /v1/route while a reporter streams fault
// reports in. Every query must be answered (HTTP 200 with a well-formed
// body — graceful rejection counts, transport errors and 5xxs do not),
// and the generations observed by each client must never decrease. Run
// with -race, which is what CI does.
func TestConcurrentLoad(t *testing.T) {
	s := newTestServer(t, 12, 12)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const (
		clients   = 8
		queries   = 60
		faultWave = 6 // interior diagonal nodes reported one at a time
	)

	var wg sync.WaitGroup
	errc := make(chan error, clients+1)

	// Fault reporter: streams one report at a time, mid-load.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < faultWave; i++ {
			body, _ := json.Marshal(FaultReport{Nodes: []string{fmt.Sprintf("(%d,%d)", 3+i, 4+i)}})
			resp, err := http.Post(ts.URL+"/v1/faults", "application/json", bytes.NewReader(body))
			if err != nil {
				errc <- fmt.Errorf("fault report %d: %v", i, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				errc <- fmt.Errorf("fault report %d: status %d", i, resp.StatusCode)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + id)))
			lastGen := uint64(0)
			for q := 0; q < queries; q++ {
				src := fmt.Sprintf("(%d,%d)", rng.Intn(12), rng.Intn(12))
				dst := fmt.Sprintf("(%d,%d)", rng.Intn(12), rng.Intn(12))
				body, _ := json.Marshal(RouteRequest{Src: src, Dst: dst})
				resp, err := http.Post(ts.URL+"/v1/route", "application/json", bytes.NewReader(body))
				if err != nil {
					errc <- fmt.Errorf("client %d query %d: %v", id, q, err)
					return
				}
				var rr RouteResponse
				decodeErr := json.NewDecoder(resp.Body).Decode(&rr)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || decodeErr != nil {
					errc <- fmt.Errorf("client %d query %d %s->%s: status %d, decode %v",
						id, q, src, dst, resp.StatusCode, decodeErr)
					return
				}
				if !rr.Found && rr.Reason == "" {
					errc <- fmt.Errorf("client %d: rejection with no reason: %+v", id, rr)
					return
				}
				if rr.Generation < lastGen {
					errc <- fmt.Errorf("client %d: generation went backwards: %d after %d",
						id, rr.Generation, lastGen)
					return
				}
				lastGen = rr.Generation
			}
		}(c)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// All reports eventually land; coalescing means generation is between
	// 1 and faultWave.
	e := waitGeneration(t, s, 1)
	deadline := time.Now().Add(10 * time.Second)
	for e.Faults.NumNodeFaults() < faultWave {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d faults folded in", e.Faults.NumNodeFaults(), faultWave)
		}
		time.Sleep(time.Millisecond)
		e = s.Epoch()
	}
	if e.Generation > faultWave {
		t.Errorf("generation %d exceeds %d reports", e.Generation, faultWave)
	}

	// With the dust settled, any two survivors of the final epoch route.
	var survivors []mesh.Coord
	e.Faults.Mesh().ForEachNode(func(c mesh.Coord) {
		if !e.Faults.NodeFaulty(c) && !e.IsLamb(c) {
			survivors = append(survivors, c.Clone())
		}
	})
	pairs := [][2]mesh.Coord{
		{survivors[0], survivors[len(survivors)-1]},
		{survivors[len(survivors)/2], survivors[0]},
	}
	for _, p := range pairs {
		if ans := s.Route(p[0], p[1]); !ans.Found {
			t.Errorf("survivors %v -> %v unroutable: %s", p[0], p[1], ans.Reason)
		}
	}

	// The counters the acceptance criteria name must be non-zero.
	m := s.Metrics()
	if m.Queries.Load() < clients*queries {
		t.Errorf("queries = %d, want >= %d", m.Queries.Load(), clients*queries)
	}
	if m.Recomputes.Load() == 0 {
		t.Error("no recomputes recorded")
	}
	if m.RoutesFound.Load() == 0 {
		t.Error("no routes found under load")
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(page), "lambd_queries_total 0") ||
		strings.Contains(string(page), "lambd_recomputes_total 0") {
		t.Errorf("/metrics shows zero counters after load:\n%s", page)
	}
}
