package sim

import "sync"

// pool fans contiguous index shards across persistent worker goroutines.
// The dense multi-station engine uses it for its O(M) per-slot loops
// (window membership counting, feedback fan-out, tracker commits); the
// goroutines outlive individual run calls so a slot pays two channel
// hops per worker, not a goroutine spawn.
//
// Determinism contract: run's fn must touch only index-disjoint or
// worker-private state, and callers merge per-worker results afterward in
// shard order.  Shard boundaries depend only on (n, workers), so every
// result — and therefore every simulation report — is bit-identical at
// any worker count.
type pool struct {
	workers int
	fn      func(w, lo, hi int)
	req     []chan [2]int
	wg      sync.WaitGroup
}

// newPool returns a pool of the given width; <= 1 runs everything inline
// with no goroutines.  Close must be called on wider pools when done.
func newPool(workers int) *pool {
	p := &pool{workers: workers}
	if workers <= 1 {
		p.workers = 1
		return p
	}
	p.req = make([]chan [2]int, workers)
	for w := range p.req {
		ch := make(chan [2]int, 1)
		p.req[w] = ch
		go func(w int, ch chan [2]int) {
			for span := range ch {
				p.fn(w, span[0], span[1])
				p.wg.Done()
			}
		}(w, ch)
	}
	return p
}

// minShardLen is the shortest range worth a worker of its own: run
// splits [0, n) into at most n/minShardLen shards and runs inline when
// that is one.  A shard's dispatch costs two channel hops and a wake-up,
// which the dense engine's per-station work (a membership count and a
// feedback step) repays only in long shards.  Measured on a 2-vCPU VM,
// dense runs at 2 workers against inline took 11–15× as long at 4
// stations, 1.8–2.1× at 64, 1.5–1.7× at 512, 1.2–1.4× at 1024,
// 0.77–1.03× at 2048, 0.85–0.91× at 4096 and 0.68–0.77× at 16384: the
// pool breaks even near 1024 stations per worker.
const minShardLen = 1024

// run invokes fn over [0, n) split into min(workers, n/minShardLen)
// contiguous shards and returns when all have completed.  Worker w
// always receives the w-th shard, so worker-indexed scratch slots line
// up with shard order.  A range too short for two shards runs inline.
func (p *pool) run(n int, fn func(w, lo, hi int)) {
	used := min(p.workers, n/minShardLen)
	if used <= 1 {
		fn(0, 0, n)
		return
	}
	p.fn = fn
	chunk := (n + used - 1) / used
	p.wg.Add(used)
	for w := 0; w < used; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		p.req[w] <- [2]int{lo, hi}
	}
	p.wg.Wait()
	p.fn = nil
}

// close releases the worker goroutines (no-op for inline pools).
func (p *pool) close() {
	for _, ch := range p.req {
		close(ch)
	}
}
