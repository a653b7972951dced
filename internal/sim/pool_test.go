package sim

import (
	"testing"

	"windowctl/internal/window"
)

// TestPoolShardLayout pins how run splits [0, n): one inline call below
// two minimum-length shards, else up to one contiguous shard per worker,
// the w-th to worker w.  With the bug of sharding short ranges, n =
// 2·minShardLen−1 comes back as 3 shards instead of 1.
func TestPoolShardLayout(t *testing.T) {
	p := newPool(3)
	defer p.close()
	for _, c := range []struct{ n, shards int }{
		{0, 1},
		{2*minShardLen - 1, 1},
		{2 * minShardLen, 2},
		{3*minShardLen + 5, 3},
		{10 * minShardLen, 3},
	} {
		var lo, hi [3]int
		calls := [3]int{}
		p.run(c.n, func(w, l, h int) { lo[w], hi[w] = l, h; calls[w]++ })
		got := 0
		for w := range calls {
			if calls[w] > 1 {
				t.Errorf("n=%d: worker %d called %d times, want at most once", c.n, w, calls[w])
			}
			got += calls[w]
		}
		if got != c.shards {
			t.Errorf("n=%d: %d shards, want %d", c.n, got, c.shards)
			continue
		}
		next := 0
		for w := 0; w < got; w++ {
			if lo[w] != next || hi[w] < lo[w] {
				t.Errorf("n=%d: shard %d = [%d, %d), want it to start at %d", c.n, w, lo[w], hi[w], next)
			}
			next = hi[w]
		}
		if next != c.n {
			t.Errorf("n=%d: shards end at %d, want %d", c.n, next, c.n)
		}
	}
}

// TestDenseShardedBitIdentical runs the per-station engine with enough
// stations for the pool to shard every per-station loop — membership
// counts through perturbed windows, feedback (true, then through common
// faults), resets and commits — and requires the report of one worker.
// Lockstep is verified at every station in every probe slot, so a shard
// that skipped a station's feedback fails the run with "lockstep broken"
// instead of passing unseen; a merge that reordered results shows as a
// differing fingerprint.
func TestDenseShardedBitIdentical(t *testing.T) {
	const n = 2*minShardLen + 3
	transforms := make([]Transform, n)
	transforms[0] = PriorityStretch(1.5, 0.5)
	transforms[minShardLen] = ClockSkew(0.2, 0.05)
	transforms[n-1] = ClockSkew(-0.3, 0)
	for _, faults := range []bool{false, true} {
		run := func(workers int) string {
			cfg := MultiConfig{
				Config: Config{
					Policy: window.Controlled{Length: window.FixedG(gStar)},
					Tau:    1, M: 25, Lambda: 0.6 / 25, K: 50,
					EndTime: 800, Warmup: 80, Seed: 4321,
				},
				Stations:       n,
				Workers:        workers,
				lockstepEvery:  1,
				lockstepSample: n,
			}
			if faults {
				cfg.Faults = goldenFaultMix
			}
			rep, err := runMultiDense(cfg, transforms)
			if err != nil {
				t.Fatalf("faults=%v, workers=%d: %v", faults, workers, err)
			}
			return goldenHeteroFingerprint(rep)
		}
		if want, got := run(1), run(2); got != want {
			t.Errorf("faults=%v: report at 2 workers diverged from 1 worker:\nwant %s\ngot  %s", faults, want, got)
		}
	}
}
