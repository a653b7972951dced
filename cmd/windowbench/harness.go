package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"sync/atomic"
	"syscall"
	"time"

	"windowctl/internal/core"
	"windowctl/internal/metrics"
	"windowctl/internal/rngutil"
	"windowctl/internal/sim"
	"windowctl/internal/wire"
)

// harness rebuilds windowd's data path in-process from public functions
// only: a wire.Decoder reader booking into an atomic ledger, and a pump
// goroutine releasing owed arrivals into a sim.Stepper at Poisson(λ′) in
// virtual time, seeded exactly as cmd/windowd seeds them.  Its point is
// the spans: every call into a layer can be timed from here, which the
// binary does not allow.
type harness struct {
	st     *sim.Stepper
	shared *metrics.Shared
	rel    *rngutil.Stream
	lam    float64

	ingested      atomic.Int64 // booked, not yet absorbed by the pump
	ingestedTotal atomic.Int64
	frames        atomic.Int64
	notify        chan struct{}
	stop          chan struct{}

	// Published by the pump for the poller.
	owed    atomic.Int64
	backlog atomic.Int64
	steps   atomic.Int64
	virtual atomic.Uint64 // float64 bits
	consOK  atomic.Bool

	pumpErr, readErr error
	stepNs           []float64 // sampled Stepper.Step durations
}

// harnessRun is one run of the harness.
type harnessRun struct {
	tr        *tracer
	samples   []sample
	gen       *generator
	w0, w1    float64
	wall      float64 // seconds from the epoch to the end of load
	cpu       float64 // process CPU seconds over the run
	stepNs    []float64
	finishErr error
}

// windowdReleaseTag is windowd's release-stream seed tag: its pump draws
// releases from rngutil.New(seed ^ windowdReleaseTag).
const windowdReleaseTag = 0x6a09e667f3bcc909

func cpuSeconds() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func runHarness(o options, w svcWorkload, warm, win time.Duration, traced bool) (*harnessRun, error) {
	tr := newTracer(traced)
	h := &harness{
		lam:    w.load / (svcM * svcTau),
		rel:    rngutil.New(svcSeed ^ windowdReleaseTag),
		notify: make(chan struct{}, 1),
		stop:   make(chan struct{}),
	}
	pumpLn, readLn := tr.lane("pump"), tr.lane("reader")
	// The accepted-wait histogram covers K as windowd's does.
	h.shared = metrics.NewShared(svcTau, int(math.Min(w.constraint()/svcTau, 1<<20))+64)
	var col metrics.Collector = h.shared
	var tc *tracedCollector
	if traced {
		tc = &tracedCollector{inner: h.shared}
		col = tc
	}
	pol, err := core.System{Tau: svcTau, M: svcM, RhoPrime: w.load, K: w.constraint(), Seed: svcSeed}.Policy()
	if err != nil {
		return nil, err
	}
	h.st, err = sim.NewStepper(sim.Config{
		Policy: pol, Tau: svcTau, M: svcM, Lambda: h.lam, K: w.constraint(),
		Seed: svcSeed, Collector: col,
	})
	if err != nil {
		return nil, err
	}
	h.consOK.Store(true)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	readDone, pumpDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(readDone)
		h.read(ln, readLn)
	}()
	go func() {
		defer close(pumpDone)
		h.pump(pumpLn, tc)
	}()
	stopAll := func() {
		close(h.stop)
		ln.Close()
		<-readDone
		<-pumpDone
	}

	cl, err := wire.Dial(ln.Addr().String(), wire.ClientConfig{Credit: 1 << 12})
	if err != nil {
		stopAll()
		return nil, err
	}
	defer cl.Close()
	run := &harnessRun{tr: tr, w0: warm.Seconds(), w1: (warm + win).Seconds()}
	run.gen = &generator{
		cl: cl, rng: rngutil.New(rngutil.Mix64(o.seed, seedTagLoad)),
		rate: w.rate, tick: time.Millisecond, limit: w.limit,
		ln: tr.lane("load"),
	}
	cpu0 := cpuSeconds()
	epoch := time.Now()
	pl := startPoller(epoch, h.sample)
	stopGen, genDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(genDone)
		run.gen.run(epoch, stopGen, &pl.decided)
	}()
	time.Sleep(time.Until(epoch.Add(warm + win)))
	close(stopGen)
	<-genDone
	run.wall = time.Since(epoch).Seconds()
	drainErr := cl.Drain()
	// The reader has written its final ack by the time Drain returns;
	// closing here also frees it if Drain failed mid-stream.
	cl.Close()
	<-readDone
	close(h.stop)
	<-pumpDone
	run.cpu = cpuSeconds() - cpu0
	run.samples, err = pl.finish()
	if err != nil {
		return nil, err
	}
	if run.gen.err != nil || drainErr != nil || h.readErr != nil || h.pumpErr != nil {
		return nil, fmt.Errorf("harness: generator %v, drain %v, reader %v, pump %v",
			run.gen.err, drainErr, h.readErr, h.pumpErr)
	}
	_, run.finishErr = h.st.Finish()
	run.stepNs = h.stepNs
	return run, nil
}

// sample is the in-process poll: the collector snapshot plus what the
// pump publishes, the same series windowd's /metrics carries.
func (h *harness) sample() (sample, error) {
	snap := h.shared.Snapshot()
	return sample{
		tx: snap.Transmissions, shed: snap.Discards, late: snap.Late, arrivals: snap.Arrivals,
		ingested: h.ingestedTotal.Load(), frames: h.frames.Load(),
		owed: h.owed.Load(), backlog: h.backlog.Load(), steps: h.steps.Load(),
		idle: snap.IdleSlots, success: snap.SuccessSlots, coll: snap.CollisionSlots, splits: snap.Splits,
		virtual: math.Float64frombits(h.virtual.Load()), consOK: h.consOK.Load(),
	}, nil
}

// timedReader sums the time spent inside Read: socket waits and copies,
// which the decoder's own time excludes.
type timedReader struct {
	r io.Reader
	d time.Duration
}

func (t *timedReader) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := t.r.Read(p)
	t.d += time.Since(t0)
	return n, err
}

// read is windowd's per-connection reader: decode, book one atomic add
// per frame, ack every wire.AckEvery frames and at half-close.
func (h *harness) read(ln net.Listener, l *lane) {
	l.start = time.Now()
	defer func() { l.end = time.Now() }()
	conn, err := ln.Accept()
	if err != nil {
		select {
		case <-h.stop:
		default:
			h.readErr = err
		}
		return
	}
	defer conn.Close()
	tr := &timedReader{r: conn}
	dec := wire.NewDecoder(tr, 0)
	var f wire.Frame
	var frames uint64
	out := make([]byte, 0, wire.HeaderSize+8)
	for {
		tr.d = 0
		t0 := time.Now()
		err := dec.Next(&f)
		t1 := time.Now()
		l.add(lWire, t1.Sub(t0)-tr.d)
		if err == io.EOF {
			_, h.readErr = conn.Write(wire.AppendControl(out[:0], wire.TypeAck, frames, false))
			return
		}
		if err != nil {
			h.readErr = err
			return
		}
		if f.Type != wire.TypeCounts {
			h.readErr = fmt.Errorf("unexpected %s frame", f.Type)
			return
		}
		n := int64(f.Sum())
		h.ingested.Add(n)
		h.ingestedTotal.Add(n)
		select {
		case h.notify <- struct{}{}:
		default:
		}
		frames++
		h.frames.Add(1)
		if frames%wire.AckEvery == 0 {
			if _, err := conn.Write(wire.AppendControl(out[:0], wire.TypeAck, frames, false)); err != nil {
				h.readErr = err
				return
			}
		}
		t2 := time.Now()
		l.add(lIngest, t2.Sub(t1))
		l.span("wire.decode", t0, t1, 0, frames)
	}
}

func (h *harness) publish(steps int64, conservation error) {
	h.steps.Store(steps)
	h.backlog.Store(int64(h.st.Backlog()))
	h.virtual.Store(math.Float64bits(h.st.Now()))
	if conservation != nil {
		h.consOK.Store(false)
	}
}

// lap books the time since t to a layer and returns now.
func lap(l *lane, ly layer, t time.Time) time.Time {
	now := time.Now()
	l.add(ly, now.Sub(t))
	return now
}

// pump mirrors windowd's pump loop: absorb the ledger, park when idle,
// otherwise Step, release Poisson(λ′·elapsed) owed arrivals and Inject
// them, checking conservation every 1024 steps.  Traced, every stretch
// of the loop is booked to its layer, clock reads included; untraced, it
// reads no clock.
func (h *harness) pump(l *lane, col *tracedCollector) {
	traced := col != nil
	l.start = time.Now()
	defer func() { l.end = time.Now() }()
	t := l.start
	var owed, steps int64
	// windowd polls its reconfiguration and drain channels at the top of
	// every iteration; a two-case select takes both channel locks, which
	// costs as much as a third of a step, so the mirror polls two
	// channels as well.
	ctrl := make(chan struct{})
	for {
		select {
		case <-ctrl:
		case <-h.stop:
			return
		default:
		}
		if traced {
			t = lap(l, lPump, t)
		}
		owed += h.ingested.Swap(0)
		h.owed.Store(owed)
		if traced {
			t = lap(l, lIngest, t)
		}
		if owed == 0 && h.st.Backlog() == 0 {
			h.publish(steps, h.st.CheckNow())
			if traced {
				t = lap(l, lStepper, t)
			}
			select {
			case <-h.notify:
			case <-h.stop:
				return
			}
			if traced {
				t = lap(l, lWait, t)
			}
			continue
		}
		before := h.st.Now()
		if err := h.st.Step(); err != nil {
			h.pumpErr = err
			return
		}
		if traced {
			now := time.Now()
			md, mn := col.take()
			l.self[lMetrics] += md
			l.calls[lMetrics] += mn
			l.add(lEngine, now.Sub(t)-md)
			if steps%64 == 0 {
				h.stepNs = append(h.stepNs, float64(now.Sub(t).Nanoseconds()))
				l.span("engine.step", t, now, 0, uint64(steps))
			}
			t = now
		}
		n := int64(h.rel.Poisson(h.lam * (h.st.Now() - before)))
		if n > owed {
			n = owed
		}
		owed -= n
		if traced {
			t = lap(l, lPump, t)
		}
		h.st.Inject(int(n))
		steps++
		if steps&1023 == 0 {
			h.publish(steps, h.st.CheckNow())
		}
		if traced {
			t = lap(l, lStepper, t)
		}
	}
}

// harnessLayers books the per-layer metrics the traced harness run
// measures, and the tracing overhead against the untraced run.
func harnessLayers(r *report, plain, traced *harnessRun) {
	td := float64(traced.samples[len(traced.samples)-1].decided())
	pd := float64(plain.samples[len(plain.samples)-1].decided())
	self, calls := traced.tr.totals()
	sh := traced.tr.shares()
	r.values["engine.ns_per_msg"] = float64(self[lEngine].Nanoseconds()) / td
	r.values["engine.share"] = sh[lEngine]
	r.values["pump.share"] = sh[lPump]
	r.values["ingest.share"] = sh[lIngest]
	r.values["wire.share"] = sh[lWire]
	r.values["stepper.share"] = sh[lStepper]
	r.values["metrics.share"] = sh[lMetrics]
	r.values["metrics.record_calls_per_decision"] = float64(calls[lMetrics]) / td
	r.values["trace.ns_per_decision"] = 1e9 * traced.wall / td
	r.values["trace.overhead_frac"] = (traced.cpu/td)/(plain.cpu/pd) - 1
	cov := traced.tr.coverage("pump")
	r.values["trace.layer_sum_frac"] = cov
	r.check("layer-sum", cov >= 0.9 && cov <= 1.1, "pump layers cover %.3f of its wall time", cov)
	r.check("harness-conservation", traced.finishErr == nil && plain.finishErr == nil,
		"traced %v, untraced %v", traced.finishErr, plain.finishErr)

	var sendNs, decodeNs float64
	for _, l := range traced.tr.lanes {
		switch l.name {
		case "load":
			sendNs = float64(l.self[lWire].Nanoseconds()) / float64(traced.gen.frames)
		case "reader":
			decodeNs = float64(l.self[lWire].Nanoseconds()) / float64(l.calls[lWire])
		}
	}
	steps := float64(calls[lEngine])
	r.note("traced harness: step p50 %.0f ns p99 %.0f ns (1 in 64 sampled, n=%d); pump loop (select, release) %.0f ns/step; stepper %.0f ns/step; record %.0f ns/decision",
		quantile(traced.stepNs, 0.5), quantile(traced.stepNs, 0.99), len(traced.stepNs),
		float64(self[lPump].Nanoseconds())/steps, float64(self[lStepper].Nanoseconds())/steps,
		float64(self[lMetrics].Nanoseconds())/td)
	r.note("traced harness: wire send %.0f ns/frame, decode %.0f ns/frame; %.0f decisions traced, %.0f untraced",
		sendNs, decodeNs, td, pd)
}

// pathPoint is a run's cumulative steps and losses at one decided count,
// with the rise of each across the polls that bracket it.  Linear
// interpolation between two polls is off by at most that rise, and by a
// small part of it when the rates hold steady between the polls.
type pathPoint struct {
	steps, lost   float64
	dSteps, dLost float64
}

// atDecided interpolates a run's cumulative steps and losses at the
// instant its decided count reached d.
func atDecided(ss []sample, d float64) (pathPoint, bool) {
	for i := 1; i < len(ss); i++ {
		a, z := ss[i-1], ss[i]
		if float64(z.decided()) >= d && z.decided() > a.decided() {
			f := (d - float64(a.decided())) / float64(z.decided()-a.decided())
			ds, dl := float64(z.steps-a.steps), float64(z.lost()-a.lost())
			return pathPoint{float64(a.steps) + f*ds, float64(a.lost()) + f*dl, ds, dl}, true
		}
	}
	return pathPoint{}, false
}

// fidelity checks the harness against the binary.  At saturation the
// ledger never runs dry, so the engine's path depends only on the seeds
// and both must reach the same steps and losses at the same decided
// count, within 1% plus a tenth of the rise across the bracketing polls
// (which covers a fast binary compared early, against a slow harness).  The
// sustained decision rates (as decided_per_s measures them) are printed
// side by side but not checked: measured seconds apart on a shared
// machine they differ by as much as a third with no change in either
// program.
func fidelity(r *report, w svcWorkload, b *binaryRun, plain, traced *harnessRun, binRate float64) {
	_, _, in, err := window(plain.samples, plain.w0, plain.w1)
	if err != nil {
		r.check("harness-window", false, "%v", err)
		return
	}
	rates, _ := sliceStats(in, latencies{}, slice)
	hRate := quantile(rates, 0.9)
	r.note("sustained decision rate: harness %.0f msgs/s, binary %.0f msgs/s (ratio %.3f)", hRate, binRate, hRate/binRate)
	if w.limit == 0 {
		return
	}
	d := math.Min(float64(b.samples[len(b.samples)-1].decided()), float64(traced.samples[len(traced.samples)-1].decided()))
	bp, ok1 := atDecided(b.samples, d)
	hp, ok2 := atDecided(traced.samples, d)
	ok := ok1 && ok2 &&
		math.Abs(hp.steps-bp.steps) <= 0.01*bp.steps+0.1*(bp.dSteps+hp.dSteps) &&
		math.Abs(hp.lost-bp.lost) <= 0.01*bp.lost+0.1*(bp.dLost+hp.dLost)
	r.check("fidelity-path", ok,
		"at %.0f decisions: steps/decision %.4f vs binary %.4f, loss %.4f vs binary %.4f",
		d, hp.steps/d, bp.steps/d, hp.lost/d, bp.lost/d)
}
