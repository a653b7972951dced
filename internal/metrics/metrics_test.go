package metrics

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"windowctl/internal/stats"
)

func TestSlotOutcomeString(t *testing.T) {
	cases := map[SlotOutcome]string{
		SlotIdle:       "idle",
		SlotSuccess:    "success",
		SlotCollision:  "collision",
		SlotOutcome(9): "outcome(9)",
	}
	for o, want := range cases {
		if got := o.String(); got != want {
			t.Errorf("SlotOutcome(%d).String() = %q, want %q", int(o), got, want)
		}
	}
}

func TestSlotMetricsCounting(t *testing.T) {
	m := NewSlotMetrics(1, 100)
	m.RecordArrivals(3)
	m.RecordArrivals(2)
	m.RecordSlots(SlotIdle, 4, 4)
	m.RecordSlots(SlotSuccess, 2, 50)
	m.RecordSlots(SlotCollision, 3, 3)
	m.RecordSplit()
	m.RecordSplit()
	m.RecordDiscards(1)
	m.RecordTransmission(10, true)
	m.RecordTransmission(80, false)
	m.RecordEndPending(1, 1)

	if m.Arrivals != 5 {
		t.Errorf("Arrivals = %d, want 5", m.Arrivals)
	}
	if m.IdleSlots != 4 || m.SuccessSlots != 2 || m.CollisionSlots != 3 {
		t.Errorf("slots = %d/%d/%d, want 4/2/3", m.IdleSlots, m.SuccessSlots, m.CollisionSlots)
	}
	if m.Splits != 2 {
		t.Errorf("Splits = %d, want 2", m.Splits)
	}
	if m.Transmissions != 2 || m.Accepted != 1 || m.Late != 1 {
		t.Errorf("transmissions = %d (accepted %d, late %d), want 2 (1, 1)",
			m.Transmissions, m.Accepted, m.Late)
	}
	if got := m.ElapsedTime(); got != 57 {
		t.Errorf("ElapsedTime = %v, want 57", got)
	}
	if got := m.Utilization(); got != 50.0/57 {
		t.Errorf("Utilization = %v, want %v", got, 50.0/57)
	}
	// Lost = discards(1) + late(1) + pending lost(1); decided = 1 + 3.
	if got := m.Lost(); got != 3 {
		t.Errorf("Lost = %d, want 3", got)
	}
	if got := m.Loss(); got != 0.75 {
		t.Errorf("Loss = %v, want 0.75", got)
	}
	if got := m.DiscardFraction(); got != 0.2 {
		t.Errorf("DiscardFraction = %v, want 0.2", got)
	}
	// Only the accepted wait lands in the histogram.
	if n := m.WaitHist.N(); n != 1 {
		t.Errorf("WaitHist.N = %d, want 1", n)
	}
}

func TestZeroValueDerived(t *testing.T) {
	var m SlotMetrics
	if m.Utilization() != 0 || m.Loss() != 0 || m.DiscardFraction() != 0 {
		t.Errorf("zero-value derived rates should be 0, got util=%v loss=%v disc=%v",
			m.Utilization(), m.Loss(), m.DiscardFraction())
	}
	m.RecordTransmission(1, true) // no histogram: must not panic
}

func TestRecordSlotsUnknownOutcomePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RecordSlots(outcome(7)) did not panic")
		}
	}()
	new(SlotMetrics).RecordSlots(SlotOutcome(7), 1, 1)
}

// TestNopNoAlloc pins the zero-cost claim of the no-op path: storing Nop
// in the interface and calling every method allocates nothing.
func TestNopNoAlloc(t *testing.T) {
	col := OrNop(nil)
	if _, ok := col.(Nop); !ok {
		t.Fatalf("OrNop(nil) = %T, want Nop", col)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		col.RecordArrivals(1)
		col.RecordSlots(SlotSuccess, 1, 25)
		col.RecordSplit()
		col.RecordDiscards(1)
		col.RecordTransmission(1, true)
		col.RecordEndPending(0, 0)
	})
	if allocs != 0 {
		t.Errorf("no-op collector allocates %v per event batch, want 0", allocs)
	}
}

func TestOrNopPassesThrough(t *testing.T) {
	m := new(SlotMetrics)
	if OrNop(m) != Collector(m) {
		t.Error("OrNop(non-nil) should return its argument")
	}
}

func TestCheckConservation(t *testing.T) {
	m := new(SlotMetrics)
	start := m.Checkpoint()
	m.RecordArrivals(10)
	m.RecordSlots(SlotIdle, 5, 5)
	m.RecordSlots(SlotSuccess, 6, 150)
	m.RecordSlots(SlotCollision, 2, 2)
	m.RecordTransmission(1, true)
	for i := 0; i < 5; i++ {
		m.RecordTransmission(3, true)
	}
	m.RecordDiscards(2)

	// 10 arrivals = 6 transmissions + 2 discards + 2 resident; 157 time.
	if err := m.CheckConservation(start, 2, 157); err != nil {
		t.Errorf("conservation should hold: %v", err)
	}
	if err := m.CheckConservation(start, 3, 157); err == nil {
		t.Error("message conservation violation not detected")
	} else if !strings.Contains(err.Error(), "message conservation") {
		t.Errorf("unexpected error: %v", err)
	}
	if err := m.CheckConservation(start, 2, 200); err == nil {
		t.Error("slot-time conservation violation not detected")
	} else if !strings.Contains(err.Error(), "slot-time conservation") {
		t.Errorf("unexpected error: %v", err)
	}
	// The time check is tolerant of float accumulation order.
	if err := m.CheckConservation(start, 2, 157+1e-9); err != nil {
		t.Errorf("tolerance too tight: %v", err)
	}
}

// TestCheckpointDelta verifies that a reused collector (one aggregating
// several sequential runs, as cmd/sweep does) is checked per run, over
// the delta since its checkpoint only.
func TestCheckpointDelta(t *testing.T) {
	m := new(SlotMetrics)
	// Run 1: 4 arrivals, 3 transmitted, 1 resident.
	m.RecordArrivals(4)
	m.RecordSlots(SlotSuccess, 3, 75)
	for i := 0; i < 3; i++ {
		m.RecordTransmission(1, true)
	}
	if err := m.CheckConservation(Checkpoint{}, 1, 75); err != nil {
		t.Fatalf("run 1: %v", err)
	}
	// Run 2 events land on top; only the delta must balance.
	cp := m.Checkpoint()
	m.RecordArrivals(2)
	m.RecordSlots(SlotIdle, 10, 10)
	m.RecordSlots(SlotSuccess, 2, 50)
	m.RecordTransmission(1, true)
	m.RecordTransmission(2, true)
	if err := m.CheckConservation(cp, 0, 60); err != nil {
		t.Errorf("run 2 delta: %v", err)
	}
	if err := m.CheckConservation(Checkpoint{}, 1, 135); err != nil {
		t.Errorf("whole history: %v", err)
	}
}

func TestMerge(t *testing.T) {
	a := NewSlotMetrics(1, 10)
	b := NewSlotMetrics(1, 10)
	a.RecordArrivals(2)
	a.RecordSlots(SlotIdle, 1, 1)
	a.RecordTransmission(0.5, true)
	b.RecordArrivals(3)
	b.RecordSlots(SlotCollision, 2, 2)
	b.RecordSplit()
	b.RecordTransmission(1.5, true)

	a.Merge(b)
	if a.Arrivals != 5 || a.CollisionSlots != 2 || a.Splits != 1 || a.Accepted != 2 {
		t.Errorf("merged counters wrong: %+v", a)
	}
	if a.WaitHist == nil || a.WaitHist.N() != 2 {
		t.Fatalf("same-shape histograms should merge, got %v", a.WaitHist)
	}

	// Shape mismatch drops the histogram rather than mixing bins.
	c := NewSlotMetrics(2, 10)
	a.Merge(c)
	if a.WaitHist != nil {
		t.Error("merging different-shape histograms should drop the histogram")
	}
}

func TestHistogramMergePanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Histogram.Merge with different shapes did not panic")
		}
	}()
	stats.NewHistogram(1, 10).Merge(stats.NewHistogram(2, 10))
}

func TestSnapshotAndVar(t *testing.T) {
	m := NewSlotMetrics(1, 10)
	m.RecordArrivals(2)
	m.RecordSlots(SlotSuccess, 2, 50)
	m.RecordTransmission(3, true)
	m.RecordTransmission(4, true)

	s := m.Snapshot()
	if s.Arrivals != 2 || s.SuccessSlots != 2 || s.Utilization != 1 {
		t.Errorf("snapshot wrong: %+v", s)
	}
	if s.WaitCount != 2 || s.WaitMean != 3.5 {
		t.Errorf("snapshot wait stats wrong: count %d mean %v", s.WaitCount, s.WaitMean)
	}

	// The expvar rendering must be valid JSON with the snapshot fields.
	var decoded Snapshot
	if err := json.Unmarshal([]byte(m.Var().String()), &decoded); err != nil {
		t.Fatalf("Var() is not JSON: %v", err)
	}
	if decoded != s {
		t.Errorf("Var() decoded to %+v, want %+v", decoded, s)
	}
}

func TestFormat(t *testing.T) {
	m := NewSlotMetrics(1, 10)
	m.RecordArrivals(1)
	m.RecordSlots(SlotSuccess, 1, 25)
	m.RecordTransmission(2, true)
	out := m.Format()
	for _, want := range []string{"slots", "channel time", "utilization", "messages", "loss", "accepted wait"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}
	// Without accepted transmissions the wait line is omitted.
	if out := new(SlotMetrics).Format(); strings.Contains(out, "accepted wait") {
		t.Errorf("empty collector should omit the wait line:\n%s", out)
	}
}

func TestFaultKindString(t *testing.T) {
	cases := map[FaultKind]string{
		FaultErasure:         "erasure",
		FaultFalseCollision:  "false-collision",
		FaultMissedCollision: "missed-collision",
		FaultKind(9):         "FaultKind(9)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("FaultKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestFaultCounters(t *testing.T) {
	m := &SlotMetrics{}
	m.RecordFault(FaultErasure)
	m.RecordFault(FaultErasure)
	m.RecordFault(FaultFalseCollision)
	m.RecordFault(FaultMissedCollision)
	m.RecordRecovery()
	m.RecordDesync()
	if m.Erasures != 2 || m.FalseCollisions != 1 || m.MissedCollisions != 1 {
		t.Fatalf("fault counters %d/%d/%d", m.Erasures, m.FalseCollisions, m.MissedCollisions)
	}
	if m.Faults() != 4 || m.Recoveries != 1 || m.Desyncs != 1 {
		t.Fatalf("totals faults=%d recoveries=%d desyncs=%d", m.Faults(), m.Recoveries, m.Desyncs)
	}

	other := &SlotMetrics{}
	other.RecordFault(FaultErasure)
	other.RecordRecovery()
	m.Merge(other)
	if m.Erasures != 3 || m.Recoveries != 2 {
		t.Fatalf("merge lost fault counters: erasures=%d recoveries=%d", m.Erasures, m.Recoveries)
	}

	s := m.Snapshot()
	if s.Erasures != 3 || s.FalseCollisions != 1 || s.MissedCollisions != 1 || s.Recoveries != 2 || s.Desyncs != 1 {
		t.Fatalf("snapshot fault fields %+v", s)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("unknown fault kind accepted")
		}
	}()
	m.RecordFault(FaultKind(42))
}

// TestFormatFaultLineGated pins the output contract: fault-free runs must
// render byte-identically to a build without the fault layer (no fault
// line), while any fault, recovery or desync brings the line in.
func TestFormatFaultLineGated(t *testing.T) {
	m := &SlotMetrics{}
	m.RecordArrivals(1)
	if out := m.Format(); strings.Contains(out, "faults") {
		t.Errorf("fault-free Format() mentions faults:\n%s", out)
	}
	m.RecordFault(FaultMissedCollision)
	out := m.Format()
	for _, want := range []string{"faults", "erasures=0", "missed-collisions=1", "recoveries=0", "desyncs=0"} {
		if !strings.Contains(out, want) {
			t.Errorf("faulty Format() missing %q:\n%s", want, out)
		}
	}
}

// faultBlindCollector implements only the base Collector interface —
// deliberately not by embedding Nop, which would bring the FaultObserver
// methods along and defeat the fallback this test exercises.
type faultBlindCollector struct{}

func (faultBlindCollector) RecordArrivals(int64)                    {}
func (faultBlindCollector) RecordSlots(SlotOutcome, int64, float64) {}
func (faultBlindCollector) RecordSplit()                            {}
func (faultBlindCollector) RecordDiscards(int64)                    {}
func (faultBlindCollector) RecordTransmission(float64, bool)        {}
func (faultBlindCollector) RecordEndPending(int64, int64)           {}

func TestFaultObserverOrNop(t *testing.T) {
	sm := &SlotMetrics{}
	if FaultObserverOrNop(sm) != FaultObserver(sm) {
		t.Fatal("SlotMetrics not recognized as a FaultObserver")
	}
	// A collector without the extension gets the no-op observer, and nil
	// stays safe.
	FaultObserverOrNop(faultBlindCollector{}).RecordFault(FaultErasure)
	FaultObserverOrNop(nil).RecordRecovery()
}

// CopyTo makes an equal collector whose histogram is its own: the first
// copy into an empty collector allocates that histogram, and later
// copies refill it in place without allocating.
func TestSlotMetricsCopyTo(t *testing.T) {
	src := NewSlotMetrics(1, 64)
	src.RecordArrivals(5)
	src.RecordSlots(SlotSuccess, 1, 25)
	src.RecordTransmission(3.5, true)
	var dst SlotMetrics
	src.CopyTo(&dst)
	if dst.WaitHist == src.WaitHist {
		t.Fatal("copy shares the source's histogram")
	}
	h := dst.WaitHist
	src.RecordTransmission(7.5, true)
	src.RecordSlots(SlotIdle, 3, 3)
	if a := testing.AllocsPerRun(10, func() { src.CopyTo(&dst) }); a != 0 {
		t.Errorf("refilling copy: %v allocs, want 0", a)
	}
	if dst.WaitHist != h {
		t.Error("refilling copy replaced a histogram of the right shape")
	}
	if !reflect.DeepEqual(&dst, src) {
		t.Errorf("copy differs:\n got %+v\nwant %+v", dst, *src)
	}
}
