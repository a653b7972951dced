package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"windowctl/internal/core"
	"windowctl/internal/rngutil"
	"windowctl/internal/wire"
)

// binaryRun is one measured run of the windowd binary.
type binaryRun struct {
	samples     []sample
	gen         *generator
	w0, w1      float64 // measured window, seconds since the epoch
	cpu         float64 // windowd CPU seconds over the window
	cpuWall     float64 // wall seconds the CPU reading spans
	hwmMB       float64
	setups      []float64 // exec-to-ready seconds
	ingestTotal int64
	drainErr    error
	exitErr     error
	stdout      string
	pollErr     error
}

func windowdArgs(w svcWorkload) []string {
	args := []string{"-tau", "1", "-m", "25", "-seed", "1", "-drain-timeout", "2s",
		"-load", fmt.Sprint(w.load)}
	if w.k != 0 {
		return append(args, "-k", fmt.Sprint(w.k))
	}
	return append(args, "-km", fmt.Sprint(w.km))
}

// measureBinary starts windowd setupN times (the last one serves the
// run), loads it for warm + window over one TCP connection while the
// poller samples /metrics, then drains the client and SIGTERMs windowd.
func measureBinary(o options, w svcWorkload, warm, window time.Duration, setupN int) (*binaryRun, error) {
	b := &binaryRun{}
	var wd *windowd
	for i := 0; i < setupN; i++ {
		d, ready, err := startWindowd(o.windowd, windowdArgs(w))
		if err != nil {
			return nil, err
		}
		b.setups = append(b.setups, ready.Seconds())
		if i == setupN-1 {
			wd = d
			break
		}
		if _, err := d.stop(10 * time.Second); err != nil {
			return nil, fmt.Errorf("idle windowd: %w", err)
		}
	}
	defer func() {
		select {
		case <-wd.exited:
		default:
			wd.kill()
		}
	}()

	cl, err := wire.Dial(wd.tcpAddr, wire.ClientConfig{Credit: 1 << 12})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	read, httpc := metricsReader(wd.httpAddr)
	tr := newTracer(false)
	b.gen = &generator{
		cl: cl, rng: rngutil.New(rngutil.Mix64(o.seed, seedTagLoad)),
		rate: w.rate, tick: time.Millisecond, limit: w.limit,
		ln: tr.lane("load"),
	}
	pid := wd.cmd.Process.Pid
	epoch := time.Now()
	pl := startPoller(epoch, read)
	stop := make(chan struct{})
	genDone := make(chan struct{})
	go func() {
		defer close(genDone)
		b.gen.run(epoch, stop, &pl.decided)
	}()

	b.w0, b.w1 = warm.Seconds(), (warm + window).Seconds()
	time.Sleep(time.Until(epoch.Add(warm)))
	cpu0, _, err0 := procStat(pid)
	t0 := time.Now()
	time.Sleep(time.Until(epoch.Add(warm + window)))
	cpu1, hwm, err1 := procStat(pid)
	b.cpu, b.cpuWall, b.hwmMB = cpu1-cpu0, time.Since(t0).Seconds(), hwm
	close(stop)
	<-genDone
	if err0 != nil || err1 != nil {
		return nil, fmt.Errorf("reading windowd's /proc: %v %v", err0, err1)
	}
	b.drainErr = cl.Drain()
	// Let the last decisions land before the final poll.
	time.Sleep(200 * time.Millisecond)
	b.samples, b.pollErr = pl.finish()
	b.ingestTotal, err = ingestTotal(httpc, wd.httpAddr)
	if err != nil {
		return nil, err
	}
	httpc.CloseIdleConnections()
	b.stdout, b.exitErr = wd.stop(20 * time.Second)
	return b, nil
}

// window returns the first and last samples inside [w0, w1] and every
// sample in between.
func window(ss []sample, w0, w1 float64) (a, z sample, in []sample, err error) {
	for _, s := range ss {
		if s.t >= w0 && s.t <= w1 {
			in = append(in, s)
		}
	}
	if len(in) < 2 {
		return a, z, nil, fmt.Errorf("only %d polls inside the measured window", len(in))
	}
	return in[0], in[len(in)-1], in, nil
}

// latencies are the curve-derived delays of one binary run, in seconds.
type latencies struct {
	decision, ledger, engine []float64
	entry                    []float64 // entry instants of decision
}

func curveLatencies(b *binaryRun) latencies {
	var decided, arrived polledCurve
	for _, s := range b.samples {
		decided.add(s.t, s.decided())
		arrived.add(s.t, s.arrivals)
	}
	// The messages timed are those that left within the window: in the
	// closed loop a message sent in the window may be decided only after
	// it closes.
	const samples = 20000
	var l latencies
	l.entry, l.decision = curveDelays(&b.gen.sent, &decided, decided.countAt(b.w0), decided.countAt(b.w1), samples)
	_, l.ledger = curveDelays(&b.gen.sent, &arrived, arrived.countAt(b.w0), arrived.countAt(b.w1), samples)
	_, l.engine = curveDelays(&arrived, &decided, decided.countAt(b.w0), decided.countAt(b.w1), samples)
	return l
}

// slice is the length in seconds of the stretches the measured window is
// cut into.  Other tenants of a shared machine slow the service for
// seconds at a time; the fastest slices show what the code sustains when
// they do not, and a change to the code moves every slice.
const slice = 0.5

// sliceStats cuts the window into consecutive stretches of at least
// slice seconds between polls and returns each stretch's decision rate
// and the median latency of the messages decided in it.
func sliceStats(in []sample, lat latencies, slice float64) (rates, lats []float64) {
	exits := make([]float64, len(lat.decision))
	for i, d := range lat.decision {
		exits[i] = lat.entry[i] + d
	}
	for i, j := 0, 1; j < len(in); j++ {
		a, z := in[i], in[j]
		if z.t-a.t < slice {
			continue
		}
		rates = append(rates, float64(z.decided()-a.decided())/(z.t-a.t))
		var ds []float64
		for k, e := range exits {
			if e >= a.t && e < z.t {
				ds = append(ds, lat.decision[k])
			}
		}
		if len(ds) >= 20 {
			lats = append(lats, median(ds))
		}
		i = j
	}
	return rates, lats
}

// binaryChecks books the correctness checks every binary run must pass
// and the run's attempted and failed operations.
func binaryChecks(r *report, b *binaryRun, name string, w svcWorkload, loss float64) {
	r.attempted += b.gen.frames + 1
	if b.drainErr != nil {
		r.failed += b.gen.frames - int64(b.gen.cl.Acked())
	}
	if b.exitErr != nil {
		r.failed++
	}
	r.check("generator", b.gen.err == nil, "%v", b.gen.err)
	r.check("client-drain", b.drainErr == nil, "%d of %d frames acknowledged", b.gen.cl.Acked(), b.gen.frames)
	// After a clean Drain every frame the client sent is acknowledged.
	r.check("acked==ingest.total", b.drainErr == nil && b.gen.msgs == b.ingestTotal,
		"client sent and had acknowledged %d msgs, windowd_ingest.total %d", b.gen.msgs, b.ingestTotal)
	r.check("clean-exit", b.exitErr == nil && strings.Contains(b.stdout, "conservation invariants verified"),
		"exit %v", b.exitErr)
	cons := b.pollErr == nil
	for _, s := range b.samples {
		cons = cons && s.consOK
	}
	r.check("conservation-every-poll", cons, "%d polls, poll error %v", len(b.samples), b.pollErr)
	if name == "svc-saturate" {
		a, err := core.System{Tau: svcTau, M: svcM, RhoPrime: w.load, K: w.constraint()}.AnalyticLoss()
		ok := err == nil && math.Abs(loss-a.Loss) <= 0.02
		r.check("loss-vs-eq4.7", ok, "measured %.4f, analytic %.4f (tolerance 0.02)", loss, a.Loss)
	}
}

func runSvc(o options, p plan) (*report, error) {
	w := svcWorkloads[o.workload]
	r := newReport()
	warm, win, setupN := p.warm, p.window, p.setupN
	if o.trace {
		// The traced run splits its time between the binary (for the
		// counters only it has) and two in-process harness runs.
		warm, win, setupN = time.Second, max(p.window/2, 2*time.Second), 1
	}
	b, err := measureBinary(o, w, warm, win, setupN)
	if err != nil {
		return nil, err
	}
	a, z, in, err := window(b.samples, b.w0, b.w1)
	if err != nil {
		return nil, err
	}
	dt := z.t - a.t
	dDec := float64(z.decided() - a.decided())
	if dDec <= 0 {
		return nil, fmt.Errorf("no decisions in the measured window")
	}
	loss := float64(z.lost()-a.lost()) / dDec
	lat := curveLatencies(b)
	p50 := median(lat.decision)
	binaryChecks(r, b, o.workload, w, loss)
	r.check("latency-samples", len(lat.decision) >= 100, "%d curve samples", len(lat.decision))

	rates, lats := sliceStats(in, lat, slice)
	sustained, quick := quantile(rates, 0.9), quantile(lats, 0.1)
	r.note("%.1f s slices: decision rate min %.0f, median %.0f, p90 %.0f msgs/s; latency p50 p10 %.3f ms, median %.3f ms",
		slice, quantile(rates, 0), median(rates), sustained, 1e3*quick, 1e3*median(lats))
	tail := tailPercentile(len(lat.decision))
	r.note("decided %.0f msgs/s, loss %.4f, latency p50 %.3f ms, p%g %.3f ms (n=%d), 2s-window p99 median %.3f ms",
		dDec/dt, loss, 1e3*p50, tail, 1e3*quantile(lat.decision, tail/100), len(lat.decision),
		1e3*windowedTail(lat.entry, lat.decision, 2, 0.99, 100))
	split := (median(lat.ledger) + median(lat.engine)) / p50
	r.check("wait-split", math.Abs(split-1) <= 0.1,
		"ledger wait p50 %.3f ms + engine wait p50 %.3f ms = %.3f of the decision p50",
		1e3*median(lat.ledger), 1e3*median(lat.engine), split)
	var scrapes []float64
	var owed float64
	for _, s := range in {
		scrapes = append(scrapes, s.scrape)
		owed += float64(s.owed)
	}
	owed /= float64(len(in))
	lags := b.gen.lag
	r.note("setup median %.4f s of %d; scrape p50 %.3f ms p99 %.3f ms; generator lag p99 %.3f ms; owed mean %.0f; peak RSS %.1f MB",
		median(b.setups), len(b.setups), 1e3*median(scrapes), 1e3*quantile(scrapes, 0.99), 1e3*quantile(lags, 0.99), owed, b.hwmMB)
	cores, cpuPerDec := b.cpu/b.cpuWall, 1e6*b.cpu/(dDec*b.cpuWall/dt)
	r.note("windowd CPU %.3f cores, %.3f us per decision", cores, cpuPerDec)
	if w.limit == 0 {
		// The open loop times each message from its due time; a generator
		// far behind its schedule would make that a fiction.
		lagP99 := quantile(lags, 0.99)
		r.check("generator-lag", lagP99 < 0.1, "p99 %.3f ms (limit 100 ms)", 1e3*lagP99)
	}

	if !o.trace {
		r.values["decided_per_s"] = sustained
		r.values["latency_ms"] = 1e3 * quick
		r.values["loss"] = loss
		r.values["setup_s"] = median(b.setups)
		r.values["peak_rss_mb"] = b.hwmMB
		return r, nil
	}

	slots := float64((z.idle - a.idle) + (z.success - a.success) + (z.coll - a.coll))
	r.values["engine.idle_slot_frac"] = float64(z.idle-a.idle) / slots
	r.values["engine.collision_slot_frac"] = float64(z.coll-a.coll) / slots
	r.values["engine.splits_per_decision"] = float64(z.splits-a.splits) / dDec
	r.values["engine.virtual_per_wall"] = (z.virtual - a.virtual) / dt
	r.values["pump.steps_per_decision"] = float64(z.steps-a.steps) / dDec
	r.values["pump.engine_wait_frac"] = median(lat.engine) / p50
	r.values["ingest.ledger_wait_frac"] = median(lat.ledger) / p50
	r.values["ingest.owed_mean"] = owed
	r.values["wire.frames_per_s"] = float64(z.frames-a.frames) / dt
	r.values["wire.msgs_per_frame"] = float64(z.ingested-a.ingested) / float64(z.frames-a.frames)
	r.values["process.cpu_cores"] = cores
	r.values["process.cpu_us_per_decision"] = cpuPerDec
	zeroLayers(r, "sweep.share", "sweep.points_per_s", "sweep.shard_imbalance", "queueing.share", "multi.bank_setup_frac")

	hwin := max(p.window/4, time.Second)
	plain, err := runHarness(o, w, 500*time.Millisecond, hwin, false)
	if err != nil {
		return nil, err
	}
	traced, err := runHarness(o, w, 500*time.Millisecond, hwin, true)
	if err != nil {
		return nil, err
	}
	harnessLayers(r, plain, traced)
	fidelity(r, w, b, plain, traced, sustained)
	if o.spans != "" {
		if err := traced.tr.write(spansPath(o)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func spansPath(o options) string {
	return fmt.Sprintf("%s/spans-%s-%d.json", strings.TrimRight(o.spans, "/"), o.workload, o.seed)
}
