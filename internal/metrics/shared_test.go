package metrics

import (
	"fmt"
	"sync"
	"testing"
)

// The windowd scrape path: one goroutine records protocol events while
// others snapshot the shared collector.  Run under -race this verifies
// Shared's locking actually covers every counter the snapshot reads.
func TestSharedConcurrentSnapshot(t *testing.T) {
	s := NewShared(1, 100)
	const events = 2000

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < events; i++ {
			s.RecordArrivals(3)
			s.RecordSlots(SlotIdle, 1, 1)
			s.RecordSlots(SlotSuccess, 1, 3)
			s.RecordTransmission(1.5, true)
			s.RecordTransmission(0.5, false)
			s.RecordDiscards(1)
			s.RecordSplit()
			s.RecordFault(FaultErasure)
			s.RecordRecovery()
		}
	}()

	wg.Add(2)
	for r := 0; r < 2; r++ {
		go func() {
			defer wg.Done()
			for i := 0; i < events/4; i++ {
				snap := s.Snapshot()
				// Conservation of the snapshot itself: every transmission is
				// an arrival, so the reader must never observe more
				// transmissions than arrivals even mid-run.
				if snap.Transmissions+snap.Discards > snap.Arrivals {
					panic(fmt.Sprintf("torn snapshot: tx %d + discards %d > arrivals %d",
						snap.Transmissions, snap.Discards, snap.Arrivals))
				}
				_ = s.Checkpoint()
			}
		}()
	}
	wg.Wait()

	snap := s.Snapshot()
	if snap.Arrivals != 3*events {
		t.Errorf("Arrivals = %d, want %d", snap.Arrivals, 3*events)
	}
	if snap.Transmissions != 2*events {
		t.Errorf("Transmissions = %d, want %d", snap.Transmissions, 2*events)
	}
	if snap.Accepted != events || snap.Late != events {
		t.Errorf("Accepted = %d, Late = %d, want %d each", snap.Accepted, snap.Late, events)
	}
	if snap.Discards != events {
		t.Errorf("Discards = %d, want %d", snap.Discards, events)
	}
}

// Shared must satisfy the engine-facing interfaces so it can be dropped
// into sim.Config.Metrics / FaultObserver directly.
var (
	_ Collector           = (*Shared)(nil)
	_ FaultObserver       = (*Shared)(nil)
	_ ConservationChecker = (*Shared)(nil)
)
