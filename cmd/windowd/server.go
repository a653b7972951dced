package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	httppprof "net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"windowctl"
	"windowctl/internal/metrics"
	"windowctl/internal/rngutil"
	"windowctl/internal/sim"
	"windowctl/internal/window"
)

// options is windowd's runtime configuration: the protocol operating
// point plus the service knobs.  The zero value is not usable; main
// builds one from flags and /config POST builds amended copies.
type options struct {
	listen       string
	listenTCP    string // binary ingest plane address ("" = disabled)
	maxOwed      int64  // refuse ingest past this owed backlog (0 = unbounded)
	pprof        bool
	protocol     string
	tau          float64
	m            float64
	k            float64 // absolute constraint; 0 means km·m·tau
	km           float64
	load         float64 // ρ′, the channel-time arrival rate target
	g            float64 // mean window content (0 = heuristic optimum)
	seed         uint64
	synthetic    bool // generate arrivals internally instead of ingest
	estimateRate bool // derive initial windows from a live rate estimate
	maxBacklog   int
	drainTimeout time.Duration
}

func (o options) constraint() float64 {
	if o.k != 0 {
		return o.k
	}
	return o.km * o.m * o.tau
}

// lambda is the virtual-time arrival rate λ′ = ρ′/(M·τ) the pump releases
// ingested messages at; it is also the rate the policy's view is built
// from when no estimator is running.
func (o options) lambda() float64 { return o.load / (o.m * o.tau) }

func (o options) validate() error {
	if !(o.tau > 0) || !(o.m > 0) {
		return fmt.Errorf("need positive -tau and -m (got %v, %v)", o.tau, o.m)
	}
	if !(o.load > 0) {
		return fmt.Errorf("need positive -load (got %v)", o.load)
	}
	if c := o.constraint(); !(c > 0) || c > 1e15 {
		return fmt.Errorf("need a positive finite constraint (-k/-km give %v)", c)
	}
	if o.g < 0 {
		return fmt.Errorf("-g must be >= 0, got %v", o.g)
	}
	if o.maxBacklog < 0 {
		return fmt.Errorf("-max-backlog must be >= 0, got %d", o.maxBacklog)
	}
	if o.maxOwed < 0 {
		return fmt.Errorf("-max-owed must be >= 0, got %d", o.maxOwed)
	}
	if o.drainTimeout <= 0 {
		return fmt.Errorf("-drain-timeout must be positive, got %v", o.drainTimeout)
	}
	return nil
}

// engine builds the incremental engine for this configuration: the policy
// comes from the protocol registry exactly as the batch CLIs build it, so
// the service runs the same control law the simulators measure.
func (o options) engine(col metrics.Collector) (*sim.Stepper, *window.RateEstimator, error) {
	sys := windowctl.System{
		Tau: o.tau, M: o.m, RhoPrime: o.load, K: o.constraint(),
		Seed: o.seed, WindowG: o.g,
	}
	if d, err := windowctl.ParseDiscipline(o.protocol); err == nil {
		sys.Discipline = d
	} else {
		sys.Protocol = o.protocol
	}
	pol, err := sys.Policy()
	if err != nil {
		return nil, nil, err
	}
	cfg := sim.Config{
		Policy: pol, Tau: o.tau, M: o.m, Lambda: o.lambda(), K: o.constraint(),
		Seed: o.seed, MaxBacklog: o.maxBacklog, Collector: col,
	}
	var est *window.RateEstimator
	if o.estimateRate {
		// Online re-derivation of the element-(2) initial-window rule: the
		// policy's view rate comes from this estimator instead of the
		// configured λ′, updated from every completed windowing process.
		// The half-life spans a few hundred message times so the estimate
		// rides load swings without chasing per-window noise.
		est = window.NewRateEstimator(cfg.Lambda, 200*o.m*o.tau)
		cfg.RateEstimator = est
	}
	st, err := sim.NewStepper(cfg)
	if err != nil {
		return nil, nil, err
	}
	return st, est, nil
}

// engineStatus is the pump's published state, refreshed at step
// boundaries (where the conservation invariants hold exactly) and
// rendered as the "windowd_engine" variable of /debug/vars.  It also
// carries what the JSON leaves out: the options in effect, which
// /config GET renders, a copy of the pump's collector as of the same
// boundary, and once the pump has finished, its final report.
type engineStatus struct {
	Protocol     string  `json:"protocol"`
	RhoPrime     float64 `json:"rho_prime"`
	Lambda       float64 `json:"lambda"`
	K            float64 `json:"k"`
	VirtualNow   float64 `json:"virtual_now"`
	Backlog      int     `json:"backlog"`
	OwedArrivals int64   `json:"owed_arrivals"`
	Steps        uint64  `json:"steps"`
	RateEstimate float64 `json:"rate_estimate,omitempty"`
	Conservation string  `json:"conservation"`
	Draining     bool    `json:"draining"`
	Finished     bool    `json:"finished"`

	opts  *options       // shared by every status until the next swap
	col   *collectorCopy // read it through server.pinStatus
	final *finalResult   // nil until Finished
}

// collectorCopy is one of the pump's two published copies of its
// collector.  readers counts the scrapes reading it; the pump refills a
// copy only when no scrape holds it, and otherwise replaces it.
type collectorCopy struct {
	m       metrics.SlotMetrics
	readers atomic.Int32
}

// unpin releases a status pinned by server.pinStatus.
func (st *engineStatus) unpin() { st.col.readers.Add(-1) }

type finalResult struct {
	rep sim.Report
	err error
}

type ctrlMsg struct {
	opts  options
	reply chan error
}

// ingestBooks is the ingest side of the books: what admit has booked
// per transport and the pump has yet to absorb, and the pump's owed
// ledger as the admission bound sees it.  Handlers and TCP readers
// write it only through admit; snapshot is its one rendering.
type ingestBooks struct {
	ingested  atomic.Int64 // admitted, not yet absorbed by the pump
	viaHTTP   atomic.Int64 // messages booked per transport; the total is their sum
	viaTCP    atomic.Int64
	tcpFrames atomic.Int64 // counts frames booked by the TCP plane
	tcpConns  atomic.Int64 // open TCP ingest connections (gauge)
	owedGauge atomic.Int64 // pump's owed ledger, stored whenever it changes
}

// ingestSnapshot is the "windowd_ingest" variable of /debug/vars.  Its
// fields are in key order, the order encoding/json gives a map's keys.
type ingestSnapshot struct {
	Conns  int64 `json:"conns"`
	Frames int64 `json:"frames"`
	HTTP   int64 `json:"http"`
	TCP    int64 `json:"tcp"`
	Total  int64 `json:"total"`
}

func (b *ingestBooks) snapshot() ingestSnapshot {
	h, t := b.viaHTTP.Load(), b.viaTCP.Load()
	return ingestSnapshot{
		Conns: b.tcpConns.Load(), Frames: b.tcpFrames.Load(),
		HTTP: h, TCP: t, Total: h + t,
	}
}

// server owns the engine pump and the HTTP surface.  All engine access
// happens on the single pump goroutine; handlers communicate through the
// ingest books, the notify channel and the ctrl channel, and read the
// pump's state, collector included, from status.
type server struct {
	ingestBooks
	// shared is the collector every engine the pump runs records into;
	// it keeps accumulating across /config swaps.  Only the pump
	// goroutine touches it until done is closed.  Scrapes read the copy
	// the pump publishes in status instead.
	shared *metrics.SlotMetrics
	tcp    *tcpPlane // nil when -listen-tcp is off

	draining atomic.Bool
	notify   chan struct{}
	ctrl     chan ctrlMsg
	drainCh  chan struct{}
	// ctrlWaiting is nonzero while a /config handler waits to hand the
	// pump its ctrlMsg, and from the start of the drain on: the pump's
	// one-load test for whether ctrl or drainCh needs a look.
	ctrlWaiting atomic.Int32
	drainOnce   sync.Once
	done        chan struct{}

	status atomic.Pointer[engineStatus]
}

func newServer(o options) (*server, error) {
	// An enormous constraint must not translate into an enormous
	// histogram; waits past the covered range land in the overflow bin.
	// Clamp before the float→int conversion: past int range the
	// conversion itself is implementation-defined (negative on amd64)
	// and would slip under an int-side clamp.
	b := o.constraint() / o.tau
	if !(b >= 0) || b > 1<<20 {
		b = 1 << 20
	}
	bins := int(b)
	s := &server{
		shared:  metrics.NewSlotMetrics(o.tau, bins+64),
		notify:  make(chan struct{}, 1),
		ctrl:    make(chan ctrlMsg),
		drainCh: make(chan struct{}),
		done:    make(chan struct{}),
	}
	st, est, err := o.engine(s.shared)
	if err != nil {
		return nil, err
	}
	p := newPumpState(s, st, o, est)
	p.publish(nil)
	go p.run()
	return s, nil
}

// pinStatus returns the published status with its collector copy pinned
// against reuse; the caller unpins it once done reading.  The pin is
// taken on the status still current after the pin, so the pump, which
// only ever refills a copy that is no longer current, cannot have
// started refilling it.
func (s *server) pinStatus() *engineStatus {
	for {
		st := s.status.Load()
		st.col.readers.Add(1)
		if s.status.Load() == st {
			return st
		}
		st.unpin()
	}
}

// beginDrain asks the pump to run the backlog dry and finish; it is
// idempotent and safe from any goroutine.
func (s *server) beginDrain() {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		if s.tcp != nil {
			// Stop the ingest plane first so readers wind down while the
			// pump runs the backlog dry; drain() waits for them before its
			// final accounting.
			s.tcp.close()
		}
		s.ctrlWaiting.Add(1) // never lowered: the pump must see the drain
		close(s.drainCh)
	})
}

// pumpState is the pump goroutine's working set: the engine, the release
// RNG and the owed-arrival ledger.
type pumpState struct {
	s   *server
	st  *sim.Stepper
	o   *options // in effect, as published; never written through
	lam float64
	// synthetic is o.synthetic until the drain clears it: the drain
	// stops generating without changing the published options.
	synthetic bool
	est       *window.RateEstimator
	rel       *rngutil.Stream
	// gap is the unit-rate exponential mass left before the next release
	// of an idle run, drawn from gaps: the run ends gap/λ′ after it starts.
	gap   float64
	gaps  *rngutil.Stream
	owed  int64
	steps uint64
	// relExp memoises exp(−mean) for the release means the pump meets.
	relExp expMemo
	// copies are the two collector copies publish alternates between;
	// next is the one the next publish fills.
	copies [2]*collectorCopy
	next   int
}

func newPumpState(s *server, st *sim.Stepper, o options, est *window.RateEstimator) *pumpState {
	p := &pumpState{
		s: s, st: st, o: &o, lam: o.lambda(), synthetic: o.synthetic, est: est,
		// The release stream is separate from the engine's seed so the
		// engine's own randomness stays aligned with an equally-seeded
		// batch run.
		rel:    rngutil.New(o.seed ^ 0x6a09e667f3bcc909),
		relExp: newExpMemo(),
	}
	// A child stream: Spawn leaves the release stream where it is, and
	// advance's draws do not depend on how many gaps the idle runs drew.
	p.gaps = p.rel.Spawn()
	p.gap = p.gaps.Exp(1)
	for i := range p.copies {
		p.copies[i] = new(collectorCopy)
		s.shared.CopyTo(&p.copies[i].m) // size the histogram once
	}
	return p
}

// run is the pump, the single goroutine owning the engine.  Each
// iteration absorbs the ingest counter, advances one decision epoch, and
// releases absorbed arrivals into the engine at the configured virtual
// rate λ′ — under saturation a Poisson(λ′·elapsed) count per epoch,
// which Stepper.materialize stamps inside the epoch's last slot — while
// the owed ledger (a plain integer) absorbs any wall-clock burst without
// allocating.
//
// At the figure-7 point the protocol probes about eleven mostly idle
// slots per admission decision.  The pump takes each run of idle slots in
// one Stepper.IdleRun call that ends at the next release, drawn once per
// run (see idleRun), and keeps the loop's fixed cost small: the control
// plane is polled with one atomic load, and the channel select runs only
// once a /config handler or the drain has raised ctrlWaiting.
func (p *pumpState) run() {
	s := p.s
	defer close(s.done)
	for {
		if s.ctrlWaiting.Load() != 0 {
			select {
			case m := <-s.ctrl:
				p.reconfigure(m)
				continue
			case <-s.drainCh:
				p.drain()
				return
			default:
				// The handler has not reached its send yet; look again
				// next iteration.
			}
		}
		p.absorb()
		if !p.synthetic && p.owed == 0 && p.st.Backlog() == 0 {
			// Idle: nothing to schedule and nothing owed.  Freeze virtual
			// time and park until an ingest, reconfiguration or drain.
			p.publish(p.st.CheckNow())
			select {
			case <-s.notify:
			case m := <-s.ctrl:
				p.reconfigure(m)
			case <-s.drainCh:
				p.drain()
				return
			}
			continue
		}
		if err := p.step(); err != nil {
			p.fail(err)
			return
		}
		if p.steps&1023 == 0 {
			p.publish(p.st.CheckNow())
		}
	}
}

// absorb moves the ingest counter into the owed ledger and refreshes the
// owed gauge.  Both are locked writes, so each is skipped when it would
// change nothing: the counter is swapped only when a load reads it
// nonzero, the gauge stored only when the ledger moved.
func (p *pumpState) absorb() {
	if p.s.ingested.Load() != 0 {
		p.owed += p.s.ingested.Swap(0)
	}
	if p.s.owedGauge.Load() != p.owed {
		p.s.owedGauge.Store(p.owed)
	}
}

// step advances the engine by a run of idle slots when it can take one
// and there is something to release, otherwise by one decision epoch.
// Either way it adds the decision epochs taken to p.steps and stops at
// the next multiple of 1024 steps, where the pump publishes its status.
// With the engine warm it performs zero allocations per call.  A run
// needs an empty engine, so under a standing backlog step goes straight
// to advance.
func (p *pumpState) step() error {
	if (p.synthetic || p.owed > 0) && p.st.Backlog() == 0 && p.idleRun() {
		return nil
	}
	return p.advance()
}

// idleRun takes one run of idle slots, in one Stepper.IdleRun call
// however long it is, and reports whether the engine took one.
//
// The run releases nothing until the next arrival of a Poisson(λ′)
// stream, until = start + gap/λ′.  A run that reaches it releases that
// arrival and the Poisson(λ′·(now − until)) more that fall in the rest of
// its last slot, then draws a fresh gap.  A run cut short by the
// 1024-step boundary spends the mass it covered, λ′·(now − start), and
// the rest carries over.  By memorylessness the rest is again a unit
// exponential, whatever advance draws meanwhile and whatever λ′ a
// /config swap brings, so each idle slot releases an independent
// Poisson(λ′τ) count, as advance's per-epoch draw would.
func (p *pumpState) idleRun() bool {
	start := p.st.Now()
	until := start + p.gap/p.lam
	slots := p.st.IdleRun(1024-int(p.steps&1023), until)
	if slots == 0 {
		return false
	}
	p.steps += uint64(slots)
	if now := p.st.Now(); now >= until {
		p.inject(1 + int64(p.release(now-until)))
		p.gap = p.gaps.Exp(1)
	} else {
		p.gap -= p.lam * (now - start)
	}
	return true
}

// advance runs one decision epoch and releases owed arrivals matched to
// the channel time it consumed.  This is the ingest→schedule hot path.
func (p *pumpState) advance() error {
	before := p.st.Now()
	if err := p.st.Step(); err != nil {
		return err
	}
	p.inject(int64(p.release(p.st.Now() - before)))
	p.steps++
	return nil
}

// release draws the arrivals released over elapsed channel time:
// Poisson(λ′·elapsed), with exp(−mean) from the memo.
func (p *pumpState) release(elapsed float64) int {
	mean := p.lam * elapsed
	return p.rel.PoissonExp(mean, p.relExp.of(mean))
}

// expMemo is a direct-mapped table of exp(−mean) keyed by the exact bits
// of mean.  The pump's epochs last a handful of distinct times — one slot
// for an idle probe, a transmission plus j slots for a success — so the
// means repeat, though rarely twice in a row under overload.  At τ = 1
// every elapsed time is a whole number and the table hits; at other τ a
// miss only costs the math.Exp it replaces.  Every entry starts as the
// exact pair (0, exp(−0) = 1), so no entry is ever wrong.
type expMemo [64]struct {
	bits uint64
	exp  float64
}

func newExpMemo() (m expMemo) {
	for i := range m {
		m[i].exp = 1
	}
	return m
}

// of returns exp(−mean), bit for bit math.Exp(-mean).
func (m *expMemo) of(mean float64) float64 {
	b := math.Float64bits(mean)
	e := &m[(b*0x9e3779b97f4a7c15)>>58]
	if e.bits != b {
		e.bits, e.exp = b, math.Exp(-mean)
	}
	return e.exp
}

// inject hands n released arrivals to the engine, clamped to the owed
// ledger unless the pump generates its own arrivals.
func (p *pumpState) inject(n int64) {
	if !p.synthetic {
		if n > p.owed {
			n = p.owed
		}
		p.owed -= n
	}
	p.st.Inject(int(n))
}

// reconfigure swaps the engine for one built from the new options: the
// new engine is constructed first (construction errors leave the old one
// running), then the old engine is finished — its conservation invariants
// verified — and the pump's collector simply keeps accumulating across
// the swap.  Messages still queued in the outgoing engine are re-injected
// into the incoming one so a /config POST under load does not shed the
// in-flight backlog; the outgoing engine's Finish books them as censored
// residents and the incoming engine counts them as fresh arrivals, so the
// cumulative arrival counter advances by the carried count at each swap
// (see docs/SERVICE.md).
func (p *pumpState) reconfigure(m ctrlMsg) {
	// Book the outgoing engine's released-but-unstamped arrivals before the
	// incoming engine takes its conservation checkpoint.  Left to the
	// outgoing Finish, they would land in the incoming engine's window
	// twice — booked by that Finish and again in the carry — and its
	// books would never balance.
	p.st.Materialize()
	st, est, err := m.opts.engine(p.s.shared)
	if err != nil {
		m.reply <- err
		return
	}
	carry := p.st.Backlog()
	_, err = p.st.Finish()
	p.st, p.est, p.o, p.lam, p.synthetic = st, est, &m.opts, m.opts.lambda(), m.opts.synthetic
	if carry > 0 {
		p.st.Inject(carry)
	}
	// Publish the swap before replying: the handler renders the
	// published options as soon as the reply wakes it.
	p.publish(nil)
	if err != nil {
		// The outgoing engine's books do not balance: surface it to the
		// caller and keep serving with the fresh engine.
		err = fmt.Errorf("finishing previous engine: %w", err)
	}
	m.reply <- err
}

// drain runs the engine dry: absorb the last ingested arrivals, release
// and schedule until nothing is pending (or the drain timeout expires),
// then finish — classifying any stranded residents — and verify the
// conservation invariants one final time.
func (p *pumpState) drain() {
	// The TCP readers were cut off by beginDrain; wait (bounded) for them
	// to finish so every frame acknowledged before the cut is booked
	// before the final accounting below.
	p.s.shutdownTCP(2 * time.Second)
	deadline := time.Now().Add(p.o.drainTimeout)
	p.synthetic = false // stop generating; only owed messages remain
	for time.Now().Before(deadline) {
		// Re-absorb the counter every iteration: a request that passed
		// admit's draining check just as beginDrain fired may add to
		// ingested after drain has started, and a single up-front Swap
		// would strand those acknowledged messages unscheduled.
		p.absorb()
		if p.owed == 0 && p.st.Backlog() == 0 {
			break
		}
		if err := p.step(); err != nil {
			p.fail(err)
			return
		}
		if p.steps&1023 == 0 {
			p.publish(nil)
		}
	}
	if p.owed += p.s.ingested.Swap(0); p.owed > 0 {
		// Timeout (or a last racing admit) with messages still owed:
		// materialize them so the books balance; Finish classifies them
		// as censored residents.
		p.st.Inject(int(p.owed))
		p.owed = 0
	}
	p.s.owedGauge.Store(0)
	rep, err := p.st.Finish()
	p.finish(rep, err)
}

func (p *pumpState) fail(err error) {
	rep, _ := p.st.Finish()
	p.finish(rep, err)
}

// status assembles the state publish stores, copying the collector
// into the copy the last publish did not use.  A copy a scrape still
// holds is replaced rather than refilled.
func (p *pumpState) status(conservation error) *engineStatus {
	c := p.copies[p.next]
	if c.readers.Load() != 0 {
		c = new(collectorCopy)
		p.copies[p.next] = c
	}
	p.s.shared.CopyTo(&c.m)
	p.next ^= 1
	st := &engineStatus{
		Protocol: p.o.protocol, RhoPrime: p.o.load, Lambda: p.lam, K: p.o.constraint(),
		VirtualNow: p.st.Now(), Backlog: p.st.Backlog(), OwedArrivals: p.owed,
		Steps: p.steps, Conservation: "ok", Draining: p.s.draining.Load(),
		opts: p.o, col: c,
	}
	if p.est != nil {
		st.RateEstimate = p.est.Rate()
	}
	if conservation != nil {
		st.Conservation = conservation.Error()
	}
	return st
}

func (p *pumpState) publish(conservation error) { p.s.status.Store(p.status(conservation)) }

// finish publishes the pump's last state with its final result.
func (p *pumpState) finish(rep sim.Report, err error) {
	st := p.status(err)
	st.Finished, st.final = true, &finalResult{rep: rep, err: err}
	p.s.status.Store(st)
}

// routes builds the HTTP surface.
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /config", s.handleConfigGet)
	mux.HandleFunc("POST /config", s.handleConfigPost)
	mux.HandleFunc("GET /debug/vars", s.handleVars)
	if s.status.Load().opts.pprof {
		mux.HandleFunc("GET /debug/pprof/", httppprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("POST /debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", httppprof.Trace)
	}
	return mux
}

var (
	errDraining   = errors.New("draining")
	errOverloaded = errors.New("owed backlog past -max-owed")
)

// admit books n externally arrived messages to one transport's counter
// and wakes the pump.  It is the single admission point shared by the
// HTTP handlers and the TCP readers: once the server is draining, or
// while the owed backlog exceeds -max-owed, it books nothing and says
// why.  The backlog estimate sums the un-absorbed counter (exact) and
// the pump's owed gauge (refreshed every pump iteration), so the bound
// lags true overload by at most one epoch.
func (s *server) admit(n int64, via *atomic.Int64) error {
	if s.draining.Load() {
		return errDraining
	}
	if bound := s.status.Load().opts.maxOwed; bound > 0 && s.ingested.Load()+s.owedGauge.Load() > bound {
		return errOverloaded
	}
	s.ingested.Add(n)
	via.Add(n)
	select {
	case s.notify <- struct{}{}:
	default:
	}
	return nil
}

// maxIngestBody bounds an /ingest body; a longer one is refused whole.
const maxIngestBody = 16 << 20

// handleIngest accepts newline-delimited JSON records, one batch per
// line: {"count": N} with 0 <= N <= 2^32−1.  An empty object (or omitted
// count) means one message.  The whole body is booked atomically at the
// end, or not at all: a malformed record is a 400 and a body past
// maxIngestBody a 413.
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	sc := bufio.NewScanner(http.MaxBytesReader(w, r.Body, maxIngestBody))
	sc.Buffer(make([]byte, 0, 64<<10), 64<<10)
	var total int64
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec struct {
			Count *int64 `json:"count"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			http.Error(w, fmt.Sprintf("bad record %q: %v", line, err), http.StatusBadRequest)
			return
		}
		n := int64(1)
		if rec.Count != nil {
			n = *rec.Count
		}
		if n < 0 {
			http.Error(w, fmt.Sprintf("negative count %d", n), http.StatusBadRequest)
			return
		}
		if n > math.MaxUint32 {
			// The per-entry bound of the wire protocol.  It keeps the
			// body's total far from int64 overflow: 16 MiB holds fewer
			// than 2^23 records.
			http.Error(w, fmt.Sprintf("count %d exceeds %d", n, uint32(math.MaxUint32)), http.StatusBadRequest)
			return
		}
		total += n
	}
	if err := sc.Err(); err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), code)
		return
	}
	if err := s.admit(total, &s.viaHTTP); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintf(w, "{\"accepted\":%d}\n", total)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	select {
	case <-s.done:
		http.Error(w, "pump stopped", http.StatusServiceUnavailable)
		return
	default:
	}
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if st := s.status.Load(); st != nil && st.Conservation != "ok" {
		http.Error(w, "conservation violated: "+st.Conservation, http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleMetrics renders the counters in the Prometheus text exposition
// format.  The wait quantiles live here (not in the expvar snapshot)
// because a quantile in the histogram's overflow region is +Inf, which
// this format can represent and JSON cannot.  Every pump series comes
// from one pinned status, so a scrape is exact as of one publish.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.pinStatus()
	defer st.unpin()
	snap := st.col.m.Snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	line := func(name string, v any) {
		switch x := v.(type) {
		case float64:
			fmt.Fprintf(w, "%s %s\n", name, formatFloat(x))
		default:
			fmt.Fprintf(w, "%s %v\n", name, v)
		}
	}
	in := s.snapshot()
	line("windowd_arrivals_total", snap.Arrivals)
	line("windowd_ingested_total", in.Total)
	fmt.Fprintf(w, "windowd_ingested_total{transport=\"http\"} %d\n", in.HTTP)
	fmt.Fprintf(w, "windowd_ingested_total{transport=\"tcp\"} %d\n", in.TCP)
	line("windowd_ingest_frames_total", in.Frames)
	line("windowd_ingest_conns", in.Conns)
	line("windowd_transmissions_total", snap.Transmissions)
	line("windowd_accepted_total", snap.Accepted)
	line("windowd_late_total", snap.Late)
	line("windowd_shed_total", snap.Discards)
	line("windowd_shed_fraction", snap.DiscardFraction)
	line("windowd_splits_total", snap.Splits)
	line("windowd_idle_slots_total", snap.IdleSlots)
	line("windowd_success_slots_total", snap.SuccessSlots)
	line("windowd_collision_slots_total", snap.CollisionSlots)
	line("windowd_channel_utilization", snap.Utilization)
	line("windowd_wait_mean", snap.WaitMean)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		fmt.Fprintf(w, "windowd_wait_quantile{q=\"%g\"} %s\n", q, formatFloat(st.col.m.WaitQuantile(q)))
	}
	line("windowd_virtual_now", st.VirtualNow)
	line("windowd_backlog", st.Backlog)
	line("windowd_owed_arrivals", st.OwedArrivals)
	line("windowd_steps_total", st.Steps)
	if st.RateEstimate != 0 {
		line("windowd_rate_estimate", st.RateEstimate)
	}
	healthy := 0
	if st.Conservation == "ok" {
		healthy = 1
	}
	line("windowd_conservation_ok", healthy)
}

// handleVars serves /debug/vars in expvar.Handler's format: this
// server's three variables, then the process-wide expvar ones.
// "windowd" (the collector) and "windowd_engine" (the pump status)
// render from one pinned status, so they agree as of one publish;
// "windowd_ingest" renders the ingest books.
func (s *server) handleVars(w http.ResponseWriter, r *http.Request) {
	st := s.pinStatus()
	defer st.unpin()
	// Encoding errors are dropped, as expvar.Func drops them.
	col, _ := json.Marshal(st.col.m.Snapshot())
	eng, _ := json.Marshal(*st)
	in, _ := json.Marshal(s.snapshot())
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintf(w, "{\n\"windowd\": %s,\n\"windowd_engine\": %s,\n\"windowd_ingest\": %s", col, eng, in)
	expvar.Do(func(kv expvar.KeyValue) {
		fmt.Fprintf(w, ",\n%q: %s", kv.Key, kv.Value)
	})
	fmt.Fprintf(w, "\n}\n")
}

// formatFloat renders a float for the text exposition format, spelling
// infinities the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func (s *server) handleConfigGet(w http.ResponseWriter, r *http.Request) {
	o := *s.status.Load().opts
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"protocol": o.protocol, "tau": o.tau, "m": o.m, "k": o.constraint(),
		"load": o.load, "g": o.g, "seed": o.seed,
		"synthetic": o.synthetic, "estimate_rate": o.estimateRate,
		"max_backlog": o.maxBacklog, "drain_timeout": o.drainTimeout.String(),
		"listen_tcp": o.listenTCP, "tcp_addr": s.tcpAddr(),
		"max_owed": o.maxOwed,
	})
}

// handleConfigPost retunes the running service: the request carries the
// fields to change (protocol, k or km, load, g, seed, synthetic), the new
// engine is built and swapped on the pump goroutine, and the previous
// engine's conservation invariants are verified during the handoff.  Tau
// cannot change at runtime: the pump's collector's histogram bin width
// is fixed at τ.
func (s *server) handleConfigPost(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Protocol  *string  `json:"protocol"`
		M         *float64 `json:"m"`
		K         *float64 `json:"k"`
		KM        *float64 `json:"km"`
		Load      *float64 `json:"load"`
		G         *float64 `json:"g"`
		Seed      *uint64  `json:"seed"`
		Synthetic *bool    `json:"synthetic"`
		Tau       *float64 `json:"tau"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Tau != nil {
		http.Error(w, "tau cannot change at runtime (metrics bin width is fixed at tau)", http.StatusBadRequest)
		return
	}
	o := *s.status.Load().opts
	if req.Protocol != nil {
		o.protocol = *req.Protocol
	}
	if req.M != nil {
		o.m = *req.M
	}
	if req.K != nil {
		o.k = *req.K
	}
	if req.KM != nil {
		o.km = *req.KM
		if req.K == nil {
			o.k = 0 // km only: drop a previous absolute constraint
		}
	}
	if req.Load != nil {
		o.load = *req.Load
	}
	if req.G != nil {
		o.g = *req.G
	}
	if req.Seed != nil {
		o.seed = *req.Seed
	}
	if req.Synthetic != nil {
		o.synthetic = *req.Synthetic
	}
	if err := o.validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	m := ctrlMsg{opts: o, reply: make(chan error, 1)}
	// The pump looks at ctrl only while ctrlWaiting is raised.
	s.ctrlWaiting.Add(1)
	var refused string
	select {
	case s.ctrl <- m:
	case <-s.done:
		refused = "pump stopped"
	case <-time.After(5 * time.Second):
		refused = "pump busy"
	}
	s.ctrlWaiting.Add(-1)
	if refused != "" {
		http.Error(w, refused, http.StatusServiceUnavailable)
		return
	}
	if err := <-m.reply; err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.handleConfigGet(w, r)
}
