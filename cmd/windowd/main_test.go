package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"windowctl"
	"windowctl/internal/metrics"
)

func testOptions() options {
	return options{
		listen: "127.0.0.1:0", protocol: "controlled",
		tau: 1, m: 10, km: 1, load: 0.9, seed: 7,
		drainTimeout: 5 * time.Second,
	}
}

// scrape pulls the "windowd" collector snapshot and engine status out of
// /debug/vars, the exact path a monitoring agent uses.
func scrape(t *testing.T, base string) (metrics.Snapshot, engineStatus) {
	t.Helper()
	resp, err := http.Get(base + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Windowd metrics.Snapshot `json:"windowd"`
		Engine  engineStatus     `json:"windowd_engine"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("decoding /debug/vars: %v", err)
	}
	return vars.Windowd, vars.Engine
}

func postNDJSON(t *testing.T, base string, body string) {
	t.Helper()
	resp, err := http.Post(base+"/ingest", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("/ingest: status %d", resp.StatusCode)
	}
}

// The tentpole's end-to-end contract: start the server, POST arrivals,
// watch transmissions and element-(4) sheds appear in /debug/vars, drain,
// and verify the books balance exactly.
func TestServerEndToEnd(t *testing.T) {
	s, err := newServer(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	const batches, perBatch = 5, 300
	for i := 0; i < batches; i++ {
		postNDJSON(t, ts.URL, fmt.Sprintf("{\"count\":%d}\n", perBatch))
	}

	// The pump schedules asynchronously; wait for it to work through the
	// ingested load (scheduled as Poisson(λ′) in virtual time).
	deadline := time.Now().Add(10 * time.Second)
	var snap metrics.Snapshot
	for {
		snap, _ = scrape(t, ts.URL)
		if snap.Transmissions > 0 && snap.Arrivals == batches*perBatch {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pump never caught up: %+v", snap)
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: status %d", resp.StatusCode)
	}

	s.beginDrain()
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not complete")
	}
	fin := s.status.Load().final
	if fin == nil {
		t.Fatal("no final result")
	}
	if fin.err != nil {
		t.Fatalf("drain failed conservation: %v", fin.err)
	}

	snap = s.shared.Snapshot()
	if snap.Arrivals != batches*perBatch {
		t.Errorf("arrivals = %d, want %d", snap.Arrivals, batches*perBatch)
	}
	resident := int64(fin.rep.EndBacklog)
	if snap.Transmissions+snap.Discards+resident != snap.Arrivals {
		t.Errorf("conservation: tx %d + shed %d + resident %d != arrivals %d",
			snap.Transmissions, snap.Discards, resident, snap.Arrivals)
	}
	// At K/M = 1 and ρ′ = 0.9 element (4) must be shedding.
	if snap.Discards == 0 {
		t.Error("expected nonzero element-(4) sheds at K/M=1, ρ'=0.9")
	}

	// After drain the ingest surface must refuse work.
	resp, err = http.Post(ts.URL+"/ingest", "application/x-ndjson", strings.NewReader("{\"count\":1}\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("ingest while drained: status %d, want 503", resp.StatusCode)
	}
}

// Runtime retuning: a /config POST swaps engines under load; the shared
// collector keeps accumulating across the swap and the previous engine's
// conservation invariants are verified during the handoff.
func TestServerConfigSwap(t *testing.T) {
	s, err := newServer(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	postNDJSON(t, ts.URL, "{\"count\":400}\n")
	resp, err := http.Post(ts.URL+"/config", "application/json",
		strings.NewReader(`{"km": 4, "load": 0.5, "protocol": "controlled"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/config POST: status %d: %s", resp.StatusCode, body)
	}
	var cfg map[string]any
	if err := json.Unmarshal(body, &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg["k"] != 40.0 || cfg["load"] != 0.5 {
		t.Errorf("config did not apply: %v", cfg)
	}

	// The swapped engine must schedule arrivals ingested after the swap.
	// Arrivals may exceed the 800 ingested: backlog carried across the
	// swap is booked again by the incoming engine (see docs/SERVICE.md).
	postNDJSON(t, ts.URL, "{\"count\":400}\n")
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap, _ := scrape(t, ts.URL)
		if snap.Arrivals >= 800 && snap.Transmissions > 400 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("post-swap engine stalled: %+v", snap)
		}
		time.Sleep(10 * time.Millisecond)
	}

	s.beginDrain()
	<-s.done
	if fin := s.status.Load().final; fin == nil || fin.err != nil {
		t.Fatalf("drain after swap: %+v", fin)
	}

	// Tau is pinned: the histogram bin width cannot change at runtime.
	resp, err = http.Post(ts.URL+"/config", "application/json", strings.NewReader(`{"tau": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("changing tau: status %d, want 400", resp.StatusCode)
	}
}

// barePump builds a pumpState outside newServer so reconfigure/drain can
// be exercised deterministically, without the pump goroutine owning the
// engine or the expvar surface being touched.
func barePump(t testing.TB, o options) (*server, *pumpState) {
	t.Helper()
	srv := &server{shared: metrics.NewSlotMetrics(o.tau, 256)}
	st, est, err := o.engine(srv.shared)
	if err != nil {
		t.Fatal(err)
	}
	return srv, newPumpState(srv, st, o, est)
}

// A /config swap under load must not shed the in-engine backlog: every
// message still pending in the outgoing engine is re-injected into the
// incoming one.
func TestReconfigureCarriesBacklog(t *testing.T) {
	o := testOptions()
	_, p := barePump(t, o)
	for i := 0; i < 5; i++ {
		if err := p.st.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// Injected after the last Step, these 50 are still in the engine
	// (queued) when the swap lands — the backlog a /config POST under
	// load would previously have shed.
	p.st.Inject(50)
	carried := p.st.Backlog()
	if carried != 50 {
		t.Fatalf("setup: backlog = %d, want 50", carried)
	}
	o2 := o
	o2.km, o2.load = 4, 0.5
	m := ctrlMsg{opts: o2, reply: make(chan error, 1)}
	p.reconfigure(m)
	if err := <-m.reply; err != nil {
		t.Fatalf("reconfigure: %v", err)
	}
	if got := p.st.Backlog(); got != carried {
		t.Errorf("backlog after swap = %d, want the carried %d", got, carried)
	}
	// The carried messages must actually be schedulable by the new engine.
	for i := 0; i < 20000 && p.st.Backlog() > 0; i++ {
		if err := p.st.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if p.st.Backlog() != 0 {
		t.Errorf("carried backlog never drained: %d left", p.st.Backlog())
	}
}

// TestReconfigureKeepsBooksBalanced verifies that a /config swap leaves the
// incoming engine's conservation books balanced: after the carried 50 are
// drained, CheckNow and Finish both return nil.  With the bug (the
// incoming engine built, and its checkpoint taken, before the outgoing
// Finish stamped that engine's 50 queued arrivals) the 50 were booked
// twice in the incoming engine's window, and CheckNow reported
// "message conservation violated: 100 arrivals != 3 transmissions + 47
// discards + 0 resident" from then on, so /healthz stayed 503.
func TestReconfigureKeepsBooksBalanced(t *testing.T) {
	o := testOptions()
	_, p := barePump(t, o)
	for i := 0; i < 5; i++ {
		if err := p.st.Step(); err != nil {
			t.Fatal(err)
		}
	}
	p.st.Inject(50)
	o2 := o
	o2.km, o2.load = 4, 0.5
	m := ctrlMsg{opts: o2, reply: make(chan error, 1)}
	p.reconfigure(m)
	if err := <-m.reply; err != nil {
		t.Fatalf("reconfigure: %v", err)
	}
	for i := 0; i < 20000 && p.st.Backlog() > 0; i++ {
		if err := p.st.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.st.CheckNow(); err != nil {
		t.Errorf("CheckNow after swap and drain = %v, want nil", err)
	}
	if _, err := p.st.Finish(); err != nil {
		t.Errorf("Finish after swap = %v, want nil", err)
	}
}

// drain must keep re-absorbing the ingest counter: a request that passes
// admit's draining check just as beginDrain fires books messages after
// drain has begun, and they must still be scheduled, not stranded.
func TestDrainAbsorbsLateIngest(t *testing.T) {
	o := testOptions()
	srv, p := barePump(t, o)
	srv.ingested.Add(37) // booked by an admit racing beginDrain
	p.drain()
	fin := srv.status.Load().final
	if fin == nil || fin.err != nil {
		t.Fatalf("drain: %+v", fin)
	}
	snap := srv.shared.Snapshot()
	if snap.Arrivals != 37 {
		t.Errorf("arrivals = %d, want 37", snap.Arrivals)
	}
	if snap.Transmissions+snap.Discards != 37 {
		t.Errorf("late-booked messages stranded: tx %d + shed %d != 37",
			snap.Transmissions, snap.Discards)
	}
}

// Validation admits constraints up to 1e15; with a tiny tau the bin count
// constraint/tau can exceed int range, and the float→int conversion must
// not slip under the clamp and panic the histogram constructors.
func TestServerExtremeConstraintNoPanic(t *testing.T) {
	o := testOptions()
	o.tau, o.k = 1e-10, 1e14
	if err := o.validate(); err != nil {
		t.Fatalf("options should validate: %v", err)
	}
	s, err := newServer(o)
	if err != nil {
		t.Fatal(err)
	}
	s.beginDrain()
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not complete")
	}
	if fin := s.status.Load().final; fin == nil || fin.err != nil {
		t.Fatalf("empty run should finish cleanly: %+v", fin)
	}
}

// The acceptance criterion's statistical half: the live shed fraction at
// K/M = 1 must match the batch simulator's element-(4) discard rate.  A
// synthetic-mode server is the controlled comparison — its pump draws the
// same Poisson(λ′) law in virtual time the batch engine draws.
func TestServerSyntheticShedMatchesBatch(t *testing.T) {
	o := testOptions()
	o.synthetic = true
	batchSys := windowctl.System{Tau: o.tau, M: o.m, RhoPrime: o.load, K: o.km * o.m * o.tau, Seed: 99}
	batch, err := batchSys.Simulate(windowctl.SimOptions{EndTime: 300000, Warmup: 1})
	if err != nil {
		t.Fatal(err)
	}
	batchShed := float64(batch.LostSender) / float64(batch.Offered)

	s, err := newServer(o)
	if err != nil {
		t.Fatal(err)
	}
	// Free-run the synthetic pump for a bounded wall time, then drain.
	time.Sleep(300 * time.Millisecond)
	s.beginDrain()
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not complete")
	}
	fin := s.status.Load().final
	if fin == nil || fin.err != nil {
		t.Fatalf("synthetic run failed: %+v", fin)
	}
	snap := s.shared.Snapshot()
	if snap.Arrivals < 10000 {
		t.Skipf("machine too slow for a statistical comparison (only %d arrivals)", snap.Arrivals)
	}
	liveShed := float64(snap.Discards) / float64(snap.Arrivals)
	if batchShed <= 0 || liveShed <= 0 {
		t.Fatalf("expected shedding on both sides: batch=%v live=%v", batchShed, liveShed)
	}
	if diff := math.Abs(batchShed - liveShed); diff > 0.05 {
		t.Errorf("shed fraction diverges: batch %.4f vs live %.4f (|Δ| = %.4f > 0.05)", batchShed, liveShed, diff)
	}
}

// CLI exit-path contract (PR 4 convention): validation errors are usage
// errors, -h is not an error at all.
func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"bad tau", []string{"-tau", "-1"}},
		{"bad load", []string{"-load", "0"}},
		{"bad km", []string{"-km", "-2"}},
		{"unknown protocol", []string{"-protocol", "nosuch"}},
		{"positional junk", []string{"extra"}},
		{"bad drain timeout", []string{"-drain-timeout", "-1s"}},
		{"inf k", []string{"-k", "1e300"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(append(tc.args, "-listen", "127.0.0.1:0"), io.Discard, io.Discard, nil)
			if err == nil {
				t.Fatal("run returned nil for invalid flags")
			}
			if !errors.As(err, new(usageError)) && !strings.Contains(err.Error(), "invalid") {
				t.Errorf("want a usage error, got %T: %v", err, err)
			}
		})
	}
	if err := run([]string{"-h"}, io.Discard, io.Discard, nil); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: want flag.ErrHelp, got %v", err)
	}
}

// signalOnWrite sends SIGTERM to this process from inside the first
// Write that contains needle, before the writer returns.
type signalOnWrite struct {
	needle string
	once   sync.Once
}

func (w *signalOnWrite) Write(b []byte) (int, error) {
	if bytes.Contains(b, []byte(w.needle)) {
		w.once.Do(func() { syscall.Kill(os.Getpid(), syscall.SIGTERM) })
	}
	return len(b), nil
}

// A SIGTERM sent the moment windowd announces its listeners must drain,
// not kill.  The signal goes out from inside the write of the first
// announcement, the earliest a client can know an address, so it lands
// before ready fires.  Were the handler installed after the
// announcement, the signal's default action would end the whole test
// binary here.
func TestRunSIGTERMAtReadyDrains(t *testing.T) {
	ready := make(chan string, 1)
	var stdout bytes.Buffer
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{"-listen", "127.0.0.1:0", "-listen-tcp", "127.0.0.1:0", "-drain-timeout", "2s"},
			&stdout, &signalOnWrite{needle: "windowd: listening on"}, ready)
	}()
	select {
	case <-ready:
	case err := <-errc:
		t.Fatalf("run returned before announcing: %v", err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run after SIGTERM: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("run did not drain after SIGTERM")
	}
	if out := stdout.String(); !strings.Contains(out, "conservation invariants verified") {
		t.Errorf("no clean-drain marker in output:\n%s", out)
	}
}

// TestIngestRejectsOversizedCount pins the NDJSON per-record bound.  The
// body {"count":9223372036854775807}\n{"count":1}\n sums to 2^63, which
// wraps to -9223372036854775808.  With the bug, that total is booked with
// 202 Accepted, the pump clamps its release to the negative ledger and
// windowd dies with "sim: negative arrival count".  A record above
// 2^32−1 (the wire protocol's per-entry bound) must
// instead be refused with 400, booking nothing.
func TestIngestRejectsOversizedCount(t *testing.T) {
	s, err := newServer(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	for _, body := range []string{
		"{\"count\":9223372036854775807}\n{\"count\":1}\n",
		"{\"count\":4294967296}\n",
	} {
		resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST /ingest %q: status %d (%s), want 400", body, resp.StatusCode, bytes.TrimSpace(msg))
		}
	}
	if got := s.snapshot().Total; got != 0 {
		t.Errorf("ingested total = %d after refused bodies, want 0", got)
	}

	// The pump is still alive and serving: a valid body is scheduled and
	// the drain balances the books.
	postNDJSON(t, ts.URL, "{\"count\":5}\n")
	s.beginDrain()
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not complete")
	}
	if fin := s.status.Load().final; fin == nil || fin.err != nil {
		t.Fatalf("drain after refused bodies: %+v", fin)
	}
	if got := s.shared.Snapshot().Arrivals; got != 5 {
		t.Errorf("arrivals = %d, want the 5 of the valid body", got)
	}
}

// TestIngestRejectsOversizedBody pins the /ingest body bound.  The body
// is 20 MiB of 2 621 440 eight-byte `{}     \n` records, each one
// message.  With the bug, a reader cut at 16 MiB ended the scan as if
// the body had ended there, and windowd answered 202 {"accepted":2097152}:
// accepted 2097152 of 2621440, the other 524 288 dropped without an
// error.  A body past the bound must be refused whole with 413, booking
// nothing.
func TestIngestRejectsOversizedBody(t *testing.T) {
	s, err := newServer(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.beginDrain(); <-s.done }()

	const records = 20 << 20 / 8
	body := bytes.Repeat([]byte("{}     \n"), records)
	rec := httptest.NewRecorder()
	s.routes().ServeHTTP(rec, httptest.NewRequest("POST", "/ingest", bytes.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("POST /ingest of %d records in 20 MiB: status %d %s, want 413 (the truncating reader gave 202, accepted %d of %d)",
			records, rec.Code, bytes.TrimSpace(rec.Body.Bytes()), maxIngestBody/8, records)
	}
	if got := s.snapshot().Total; got != 0 {
		t.Errorf("ingested total = %d after an oversized body, want 0 (accepted %d of %d)", got, got, records)
	}
}

// TestHTTPIngestOwedBound pins -max-owed on the HTTP plane.  The server
// has no pump, so nothing it books is ever absorbed: the first body
// (100 messages, admitted at an owed backlog of 0) leaves the backlog
// past the bound of 10, and the next body must be refused with 503,
// booking nothing — as the TCP plane sheds its next frame.  With the
// bug only the TCP plane checked the bound, and HTTP answered 202 and
// booked the second body too (ingested 101).
func TestHTTPIngestOwedBound(t *testing.T) {
	srv := &server{shared: metrics.NewSlotMetrics(1, 256), notify: make(chan struct{}, 1)}
	srv.status.Store(&engineStatus{opts: &options{maxOwed: 10}})
	h := srv.routes()
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/ingest", strings.NewReader(body)))
		return rec
	}
	if rec := post("{\"count\":100}\n"); rec.Code != http.StatusAccepted {
		t.Fatalf("first POST /ingest under the bound: status %d %s, want 202", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	if rec := post("{\"count\":1}\n"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("POST /ingest with 100 owed past -max-owed 10: status %d %s, want 503 (HTTP booked with no owed bound)",
			rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	if got := srv.snapshot(); got.Total != 100 || got.HTTP != 100 {
		t.Errorf("ingested total %d (http %d), want 100: the refused body must book nothing", got.Total, got.HTTP)
	}
}

// The third ingest encoding is gone: /ingest.bin is not routed.
func TestIngestBinRemoved(t *testing.T) {
	s, err := newServer(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.beginDrain(); <-s.done }()
	rec := httptest.NewRecorder()
	s.routes().ServeHTTP(rec, httptest.NewRequest("POST", "/ingest.bin", bytes.NewReader([]byte{0, 0, 0, 1})))
	if rec.Code != http.StatusNotFound && rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /ingest.bin: status %d, want 404 or 405", rec.Code)
	}
	if got := s.snapshot().Total; got != 0 {
		t.Errorf("ingested total = %d after POST /ingest.bin, want 0", got)
	}
}

// The drain stops a synthetic pump generating, but /config GET, which
// renders the pump's published options, still reports the
// configuration the service ran with.
func TestDrainKeepsReportedConfig(t *testing.T) {
	o := testOptions()
	o.synthetic = true
	s, err := newServer(o)
	if err != nil {
		t.Fatal(err)
	}
	s.beginDrain()
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not complete")
	}
	rec := httptest.NewRecorder()
	s.routes().ServeHTTP(rec, httptest.NewRequest("GET", "/config", nil))
	var cfg map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg["synthetic"] != true {
		t.Errorf("/config GET after the drain: synthetic = %v, want true", cfg["synthetic"])
	}
}
