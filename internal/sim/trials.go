package sim

import (
	"math/rand"
	"sync"
	"time"

	"lambmesh/internal/core"
	"lambmesh/internal/mesh"
	"lambmesh/internal/par"
	"lambmesh/internal/routing"
)

// Config controls how experiments run.
type Config struct {
	// Trials per data point. The paper uses 1000 (10000 for the rare-lamb
	// check of Section 3); smaller counts reproduce the same shapes much
	// faster.
	Trials int
	// Seed makes every run reproducible; trial t draws from a generator
	// seeded with par.TrialSeed(Seed, 0, t) (the repo-wide contract,
	// DESIGN.md §12).
	Seed int64
	// Workers bounds trial parallelism; <= 0 means NumCPU.
	Workers int
}

func (c Config) workers() int { return par.Clamp(c.Workers) }

func (c Config) trials() int {
	if c.Trials > 0 {
		return c.Trials
	}
	return 100
}

// ForEachTrial runs fn(trial, rng, s) for trial = 0..trials-1 on a worker
// pool. Each trial gets its own deterministic RNG, so results do not depend
// on scheduling. Each worker goroutine hands its trials one long-lived
// core.Solver, so per-trial lamb computations amortize their scratch across
// the whole run instead of allocating per trial; a Solver is confined to
// its worker (it is not safe for concurrent use) and only carries buffers,
// never results.
func ForEachTrial(cfg Config, trials int, fn func(trial int, rng *rand.Rand, s *core.Solver)) {
	workers := cfg.workers()
	if workers > trials {
		workers = trials
	}
	if workers <= 1 {
		s := core.NewSolver()
		for t := 0; t < trials; t++ {
			fn(t, rand.New(rand.NewSource(par.TrialSeed(cfg.Seed, 0, t))), s)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := core.NewSolver()
			for t := range next {
				fn(t, rand.New(rand.NewSource(par.TrialSeed(cfg.Seed, 0, t))), s)
			}
		}()
	}
	for t := 0; t < trials; t++ {
		next <- t
	}
	close(next)
	wg.Wait()
}

// LambObservation is what one randomized trial of the lamb algorithm
// yields — the quantities Figures 17-26 aggregate.
type LambObservation struct {
	Lambs   int
	SES     int
	DES     int
	Seconds float64
}

// RunLambTrial draws `faults` random node faults on the mesh and runs Lamb1
// through s with k rounds of ascending (e-cube) ordering on a pool of
// `workers` reachability workers (<= 0 means NumCPU), timing just the
// algorithm (fault generation excluded, matching the paper's running-time
// figure). The trial pools pass workers=1: ForEachTrial already saturates
// the machine with concurrent trials, so nesting per-trial parallelism
// would only add scheduling noise to the timings.
func RunLambTrial(m *mesh.Mesh, faults, k, workers int, rng *rand.Rand, s *core.Solver) LambObservation {
	fs := mesh.RandomNodeFaults(m, faults, rng)
	start := time.Now()
	res, err := s.Lamb1(fs, routing.UniformAscending(m.Dims(), k), core.WithWorkers(workers))
	if err != nil {
		panic(err) // experiment misconfiguration; inputs are validated upstream
	}
	return LambObservation{
		Lambs:   res.NumLambs(),
		SES:     res.Stats.NumSES,
		DES:     res.Stats.NumDES,
		Seconds: time.Since(start).Seconds(),
	}
}

// PointStats aggregates trial observations at one sweep point.
type PointStats struct {
	Faults  int
	Lambs   Agg
	SES     Agg
	Seconds Agg
}

// RunLambPoint runs cfg.Trials trials at a fixed fault count.
func RunLambPoint(cfg Config, m *mesh.Mesh, faults, k int) *PointStats {
	ps := &PointStats{Faults: faults}
	var mu sync.Mutex
	ForEachTrial(cfg, cfg.trials(), func(_ int, rng *rand.Rand, s *core.Solver) {
		obs := RunLambTrial(m, faults, k, 1, rng, s)
		mu.Lock()
		ps.Lambs.Add(float64(obs.Lambs))
		ps.SES.Add(float64(obs.SES))
		ps.Seconds.Add(obs.Seconds)
		mu.Unlock()
	})
	return ps
}
