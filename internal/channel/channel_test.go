package channel

import (
	"math"
	"reflect"
	"testing"

	"windowctl/internal/metrics"
	"windowctl/internal/window"
)

func TestResolveSlotOutcomes(t *testing.T) {
	c := New(1, 25)
	fb, d := c.ResolveSlot(0)
	if fb != window.Idle || d != 1 {
		t.Fatalf("idle slot: %v %v", fb, d)
	}
	fb, d = c.ResolveSlot(1)
	if fb != window.Success || d != 25 {
		t.Fatalf("success slot: %v %v", fb, d)
	}
	fb, d = c.ResolveSlot(7)
	if fb != window.Collision || d != 1 {
		t.Fatalf("collision slot: %v %v", fb, d)
	}
	st := c.Stats()
	if st.IdleSlots != 1 || st.SuccessSlots != 1 || st.CollisionSlots != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.BusyTime != 25 || st.WastedTime != 2 {
		t.Fatalf("times %+v", st)
	}
	if math.Abs(st.Utilization()-25.0/27) > 1e-12 {
		t.Fatalf("utilization %v", st.Utilization())
	}
	if math.Abs(st.TotalTime()-27) > 1e-12 {
		t.Fatalf("total time %v", st.TotalTime())
	}
}

func TestEmptyStats(t *testing.T) {
	c := New(0.5, 0.5)
	if c.Stats().Utilization() != 0 {
		t.Fatal("fresh channel utilization")
	}
	if c.tau != 0.5 || c.txTime != 0.5 {
		t.Fatal("accessors")
	}
}

func TestInvalidConstruction(t *testing.T) {
	for i, fn := range []func(){
		func() { New(0, 1) },
		func() { New(-1, 1) },
		func() { New(2, 1) }, // txTime < tau
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestNegativeTransmittersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative transmitter count accepted")
		}
	}()
	New(1, 10).ResolveSlot(-1)
}

func TestClassify(t *testing.T) {
	if Classify(0) != window.Idle || Classify(1) != window.Success || Classify(2) != window.Collision || Classify(9) != window.Collision {
		t.Fatal("Classify misclassifies")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative transmitter count accepted")
		}
	}()
	Classify(-1)
}

// TestAccountSlot pins the imperfect-feedback accounting: idle slots stay
// idle whatever the perception, a delivered success costs the
// transmission time, and an undelivered success (sender misread — an
// aborted transmission) costs τ as a collision slot, matching ResolveSlot
// whenever delivered == (truth == Success).
func TestAccountSlot(t *testing.T) {
	c := New(1, 25)
	if d := c.AccountSlot(window.Idle, false); d != 1 {
		t.Fatalf("idle slot duration %v", d)
	}
	if d := c.AccountSlot(window.Success, true); d != 25 {
		t.Fatalf("delivered success duration %v", d)
	}
	if d := c.AccountSlot(window.Success, false); d != 1 {
		t.Fatalf("aborted success duration %v", d)
	}
	if d := c.AccountSlot(window.Collision, false); d != 1 {
		t.Fatalf("collision duration %v", d)
	}
	st := c.Stats()
	if st.IdleSlots != 1 || st.SuccessSlots != 1 || st.CollisionSlots != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.BusyTime != 25 || st.WastedTime != 3 {
		t.Fatalf("times %+v", st)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("delivery on a collision slot accepted")
		}
	}()
	c.AccountSlot(window.Collision, true)
}

// TestIdleRunBookingIsExact books the same slot sequence twice, once
// with each idle and collision stretch as one AccountIdle or
// AccountCollisions call and once slot by slot, at a τ whose repeated
// sums are inexact: the two must be indistinguishable in Stats and in
// the collector, bit for bit.
func TestIdleRunBookingIsExact(t *testing.T) {
	const tau = 0.37
	runs := []int64{1, 250, 7, 1000}
	book := func(bulk bool) (Stats, *metrics.SlotMetrics) {
		c := New(tau, 25*tau)
		col := metrics.NewSlotMetrics(tau, 8)
		c.Observe(col)
		for i, k := range runs {
			if bulk {
				c.AccountIdle(k)
				c.AccountCollisions(k / 2)
			} else {
				for j := int64(0); j < k; j++ {
					c.ResolveSlot(0)
					if j%2 == 1 {
						c.ResolveSlot(2)
					}
				}
			}
			if i%2 == 0 {
				c.ResolveSlot(1)
			} else {
				c.AccountSlot(window.Success, false)
			}
		}
		c.AccountIdle(3)
		c.Flush()
		return c.Stats(), col
	}
	bulkStats, bulkCol := book(true)
	slotStats, slotCol := book(false)
	if bulkStats != slotStats {
		t.Errorf("Stats after k-slot idle bookings %+v, after k one-slot bookings %+v", bulkStats, slotStats)
	}
	if !reflect.DeepEqual(bulkCol, slotCol) {
		t.Errorf("collector after k-slot idle bookings %+v, after k one-slot bookings %+v", bulkCol.Snapshot(), slotCol.Snapshot())
	}
	if want := float64(1+250+7+1000+3+2+(0+125+3+500)) * tau; slotStats.WastedTime != want {
		t.Errorf("WastedTime = %v, want (idle + collision slots)·τ = %v", slotStats.WastedTime, want)
	}
	if slotCol.IdleSlots != slotStats.IdleSlots || slotCol.IdleSlots != 1+250+7+1000+3 {
		t.Errorf("collector booked %d idle slots, channel %d; want 1261 each", slotCol.IdleSlots, slotStats.IdleSlots)
	}
}
