package sim

import (
	"fmt"
	"runtime"
	"sync"

	"windowctl/internal/rngutil"
	"windowctl/internal/stats"
)

// replicationFaultTag separates a replication's fault-schedule seed
// stream from its simulation seed.  It is part of the reproducibility
// contract: changing it changes every replicated faulty run.
const replicationFaultTag = 0xfee0

// Replicated aggregates independent replications of one configuration.
type Replicated struct {
	// Runs holds the per-replication reports.
	Runs []Report
	// LossMean and LossHalfWidth give the Student-t 95% interval of the
	// loss across replications.
	LossMean, LossHalfWidth float64
	// WaitMean and WaitHalfWidth give the same for the mean true wait.
	WaitMean, WaitHalfWidth float64
}

// RunReplicated runs n independent replications of cfg (seeds derived
// from cfg.Seed) and aggregates cross-replication confidence intervals —
// the statistically sound way to report a simulation point, since
// within-run observations are correlated.  Replications run in parallel
// (they share nothing), and results are deterministic regardless of the
// degree of parallelism: replication i always uses the same derived seed.
func RunReplicated(cfg Config, n int) (Replicated, error) {
	if n < 2 {
		return Replicated{}, fmt.Errorf("sim: need >= 2 replications, got %d", n)
	}
	if cfg.RateEstimator != nil {
		return Replicated{}, fmt.Errorf("sim: a shared RateEstimator cannot be replicated; give each run its own")
	}
	if cfg.Collector != nil {
		return Replicated{}, fmt.Errorf("sim: a shared Collector cannot be replicated (replications run concurrently); collect per run and Merge instead")
	}
	// Replications run over the bounded runJobs pool: min(n,
	// GOMAXPROCS) goroutines pulling jobs, so a million-replication
	// request costs a handful of stacks, not a million.  Job i always
	// uses the seed derived from its own index, so results are
	// bit-identical at any degree of parallelism.
	runs := make([]Report, n)
	jobs := make([]func() error, n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = func() error {
			c := cfg
			// Distinct, deterministic seeds per replication.  Mix64's
			// SplitMix64 avalanche keeps adjacent replications
			// decorrelated and never collides to a degenerate seed — the
			// raw XOR it replaces gave correlated streams to neighbouring
			// replications and mapped particular base seeds to seed 0.
			c.Seed = rngutil.Mix64(cfg.Seed, uint64(i+1))
			if c.Faults.Enabled() {
				// Replications are independent fault-schedule draws too.
				c.Faults.Seed = rngutil.Mix64(cfg.Faults.Seed, uint64(i+1), replicationFaultTag)
			}
			var err error
			runs[i], err = RunGlobal(c)
			if err != nil {
				return fmt.Errorf("replication %d: %w", i, err)
			}
			return nil
		}
	}
	if err := runJobs(jobs); err != nil {
		return Replicated{}, err
	}
	out := Replicated{Runs: runs}
	losses := make([]float64, 0, n)
	waits := make([]float64, 0, n)
	for i := range runs {
		losses = append(losses, runs[i].Loss())
		waits = append(waits, runs[i].TrueWait.Mean())
	}
	var err error
	out.LossMean, out.LossHalfWidth, err = stats.MeanCI(losses, 0.95)
	if err != nil {
		return Replicated{}, err
	}
	out.WaitMean, out.WaitHalfWidth, err = stats.MeanCI(waits, 0.95)
	if err != nil {
		return Replicated{}, err
	}
	return out, nil
}

// runJobs executes the jobs over min(len(jobs), GOMAXPROCS) workers and
// returns the lowest-indexed error, independent of scheduling order.
// Each job owns the memory it writes, so the only synchronization needed
// is the final barrier.
func runJobs(jobs []func() error) error {
	errs := make([]error, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(len(jobs), runtime.GOMAXPROCS(0)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = jobs[i]()
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
