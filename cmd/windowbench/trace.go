package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"windowctl/internal/metrics"
)

// layer names one module of the system under test.  Self time is
// accumulated per layer; the names are the prefixes of the per-layer
// metrics.
type layer int

const (
	lWire     layer = iota // internal/wire: client Send/Flush, Decoder.Next
	lIngest                // the owed-arrival ledger: book and absorb
	lPump                  // the pump loop: its channel select, Poisson release
	lStepper               // sim.Stepper bookkeeping: Inject, CheckNow
	lEngine                // the protocol engine: Stepper.Step, Simulate, RunMultiStation
	lMetrics               // metrics.Shared Record* calls
	lQueueing              // core.System.AnalyticLoss
	lSweep                 // sweep keys and Cache.Put/Flush
	lMulti                 // station.NewBank
	lLoad                  // the benchmark's own generator (off the measured path)
	lWait                  // the pump parked with nothing to do
	nLayers
)

// shareLayers are the layers whose share of busy self time is reported.
var shareLayers = []layer{lWire, lIngest, lPump, lStepper, lEngine, lMetrics, lQueueing, lSweep, lMulti}

// span is one recorded interval.  Spans of one decision epoch or grid
// point share a trace id; Parent is 0 for a root span.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Trace  uint64 `json:"trace"`
}

// maxSpansPerLane bounds the spans one goroutine keeps in memory; the
// self-time totals keep counting past it.
const maxSpansPerLane = 1 << 16

// tracer hands out lanes and collects their spans.  Times are
// nanoseconds since the tracer was made.
type tracer struct {
	on    bool
	epoch time.Time
	ids   atomic.Uint64
	lanes []*lane
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// lane is one goroutine's view of the tracer: self time and call counts
// per layer, and its sampled spans.  A lane is used by one goroutine at
// a time; lanes are made before the goroutines start and read after they
// have been waited for.
type lane struct {
	tr    *tracer
	name  string
	self  [nLayers]time.Duration
	calls [nLayers]int64
	spans []span
	// start and end delimit the lane's life, for layer_sum_frac.
	start, end time.Time
}

func (t *tracer) lane(name string) *lane {
	l := &lane{tr: t, name: name}
	t.lanes = append(t.lanes, l)
	return l
}

// add books d of self time and one call to a layer.
func (l *lane) add(ly layer, d time.Duration) {
	l.self[ly] += d
	l.calls[ly]++
}

// span records an interval when tracing is on and the lane has room.
func (l *lane) span(name string, t0, t1 time.Time, parent, trace uint64) uint64 {
	if !l.tr.on || len(l.spans) >= maxSpansPerLane {
		return 0
	}
	id := l.tr.ids.Add(1)
	l.spans = append(l.spans, span{
		Name: name, Start: t0.Sub(l.tr.epoch).Nanoseconds(), End: t1.Sub(l.tr.epoch).Nanoseconds(),
		ID: id, Parent: parent, Trace: trace,
	})
	return id
}

// totals sums self time and calls over every lane.
func (t *tracer) totals() (self [nLayers]time.Duration, calls [nLayers]int64) {
	for _, l := range t.lanes {
		for i := range self {
			self[i] += l.self[i]
			calls[i] += l.calls[i]
		}
	}
	return self, calls
}

// shares returns each share layer's fraction of the busy self time.
func (t *tracer) shares() map[layer]float64 {
	self, _ := t.totals()
	var busy time.Duration
	for _, ly := range shareLayers {
		busy += self[ly]
	}
	out := make(map[layer]float64, len(shareLayers))
	for _, ly := range shareLayers {
		if busy > 0 {
			out[ly] = float64(self[ly]) / float64(busy)
		}
	}
	return out
}

// coverage is the summed self time (waiting included) of the named lanes
// over their summed lifetimes: how much of those goroutines' wall time
// the instrumented layers account for.
func (t *tracer) coverage(names ...string) float64 {
	var self, life time.Duration
	for _, l := range t.lanes {
		for _, n := range names {
			if l.name != n {
				continue
			}
			for _, d := range l.self {
				self += d
			}
			life += l.end.Sub(l.start)
		}
	}
	if life <= 0 {
		return 0
	}
	return float64(self) / float64(life)
}

// write stores every lane's spans as one JSON array.
func (t *tracer) write(path string) error {
	var all []span
	for _, l := range t.lanes {
		all = append(all, l.spans...)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(all)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// tracedCollector times every Record call, for the pump to book to the
// metrics layer.  It forwards the conservation checker so the engine
// still audits its books through it.
type tracedCollector struct {
	inner *metrics.Shared
	d     time.Duration // Record time since the last take
	n     int64         // Record calls since the last take
}

func (c *tracedCollector) stop(t0 time.Time) {
	c.d += time.Since(t0)
	c.n++
}

// take returns and resets the time and calls recorded.
func (c *tracedCollector) take() (time.Duration, int64) {
	d, n := c.d, c.n
	c.d, c.n = 0, 0
	return d, n
}

func (c *tracedCollector) RecordArrivals(n int64) {
	t0 := time.Now()
	c.inner.RecordArrivals(n)
	c.stop(t0)
}

func (c *tracedCollector) RecordSlots(o metrics.SlotOutcome, n int64, ct float64) {
	t0 := time.Now()
	c.inner.RecordSlots(o, n, ct)
	c.stop(t0)
}

func (c *tracedCollector) RecordSplit() {
	t0 := time.Now()
	c.inner.RecordSplit()
	c.stop(t0)
}

func (c *tracedCollector) RecordDiscards(n int64) {
	t0 := time.Now()
	c.inner.RecordDiscards(n)
	c.stop(t0)
}

func (c *tracedCollector) RecordTransmission(wait float64, accepted bool) {
	t0 := time.Now()
	c.inner.RecordTransmission(wait, accepted)
	c.stop(t0)
}

func (c *tracedCollector) RecordEndPending(lost, censored int64) {
	t0 := time.Now()
	c.inner.RecordEndPending(lost, censored)
	c.stop(t0)
}

func (c *tracedCollector) Checkpoint() metrics.Checkpoint { return c.inner.Checkpoint() }

func (c *tracedCollector) CheckConservation(since metrics.Checkpoint, resident int64, elapsed float64) error {
	return c.inner.CheckConservation(since, resident, elapsed)
}
