package metrics

import "sync"

// Shared is the concurrency-safe form of SlotMetrics: every Collector,
// FaultObserver and ConservationChecker method and Snapshot take an
// internal mutex, so one engine goroutine can record events while other
// goroutines snapshot the counters.  A snapshot taken while a step is in flight can be torn —
// a success slot booked whose transmission is not yet — though it never
// over-counts.
//
// cmd/windowd no longer uses it: its pump owns a plain SlotMetrics and
// publishes copies at step boundaries (SlotMetrics.CopyTo), which is
// exact and takes no lock per event.  Shared's last user is the mirror
// pump in cmd/windowbench; it goes when that mirror does.  A plain
// SlotMetrics stays the right collector for batch runs: it is
// allocation- and lock-free on the hot path.
type Shared struct {
	mu sync.Mutex
	m  SlotMetrics
}

// NewShared creates a Shared collector whose accepted-wait histogram has
// the given bin width and count (use binWidth = τ and enough bins to
// cover K, as NewSlotMetrics does).  It panics on non-positive arguments.
func NewShared(binWidth float64, bins int) *Shared {
	s := &Shared{}
	s.m = *NewSlotMetrics(binWidth, bins)
	return s
}

// RecordArrivals implements Collector.
func (s *Shared) RecordArrivals(n int64) {
	s.mu.Lock()
	s.m.RecordArrivals(n)
	s.mu.Unlock()
}

// RecordSlots implements Collector.
func (s *Shared) RecordSlots(o SlotOutcome, n int64, channelTime float64) {
	s.mu.Lock()
	s.m.RecordSlots(o, n, channelTime)
	s.mu.Unlock()
}

// RecordSplit implements Collector.
func (s *Shared) RecordSplit() {
	s.mu.Lock()
	s.m.RecordSplit()
	s.mu.Unlock()
}

// RecordDiscards implements Collector.
func (s *Shared) RecordDiscards(n int64) {
	s.mu.Lock()
	s.m.RecordDiscards(n)
	s.mu.Unlock()
}

// RecordTransmission implements Collector.
func (s *Shared) RecordTransmission(wait float64, accepted bool) {
	s.mu.Lock()
	s.m.RecordTransmission(wait, accepted)
	s.mu.Unlock()
}

// RecordEndPending implements Collector.
func (s *Shared) RecordEndPending(lost, censored int64) {
	s.mu.Lock()
	s.m.RecordEndPending(lost, censored)
	s.mu.Unlock()
}

// RecordFault implements FaultObserver.
func (s *Shared) RecordFault(k FaultKind) {
	s.mu.Lock()
	s.m.RecordFault(k)
	s.mu.Unlock()
}

// RecordRecovery implements FaultObserver.
func (s *Shared) RecordRecovery() {
	s.mu.Lock()
	s.m.RecordRecovery()
	s.mu.Unlock()
}

// RecordDesync implements FaultObserver.
func (s *Shared) RecordDesync() {
	s.mu.Lock()
	s.m.RecordDesync()
	s.mu.Unlock()
}

// Checkpoint implements ConservationChecker.
func (s *Shared) Checkpoint() Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Checkpoint()
}

// CheckConservation implements ConservationChecker.
func (s *Shared) CheckConservation(since Checkpoint, resident int64, elapsed float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.CheckConservation(since, resident, elapsed)
}

// Snapshot returns a consistent view of the counters and derived rates:
// all fields are read under one lock acquisition, so a snapshot taken
// mid-run never mixes counter values from different instants.
func (s *Shared) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Snapshot()
}
