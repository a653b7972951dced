package sim

import (
	"math"

	"windowctl/internal/metrics"
)

// slotClock is every slot engine's one definition of slot time.  The
// channel is slotted: an idle or collision slot, an aborted transmission
// and the start-up corner slot each cost τ, and a delivered message its
// transmission time.  So a slot time is
//
//	anchor + float64(k)*τ
//
// where anchor is the end of the last transmission (0 at the start) and
// k counts the τ-slots run since.  A run of τ-slots moves the clock to
// the same float whether it is taken slot by slot or in one step, so
// every idle skip is exact at any τ.  The engines embed the clock and
// read its time as their own now; only its methods move it.
type slotClock struct {
	tau    float64
	anchor float64
	k      int64
	now    float64 // at(k): the time of the next slot to run
}

// at is the time of the slot j τ-slots past the anchor.
func (c *slotClock) at(j int64) float64 { return c.anchor + float64(j)*c.tau }

// last is the time of the slot just run, when that was a τ-slot.
func (c *slotClock) last() float64 { return c.at(c.k - 1) }

// tick moves the clock past n τ-slots.
func (c *slotClock) tick(n int64) {
	c.k += n
	c.now = c.at(c.k)
}

// corner runs the start-up corner slot, when nothing is unexamined yet:
// no probe runs, so the report's IdleSlots does not count it, but the
// channel is idle for τ, so the collector records it as an idle slot and
// its slot time accounts for all of the clock.
func (c *slotClock) corner(col metrics.Collector) {
	col.RecordSlots(metrics.SlotIdle, 1, c.tau)
	c.tick(1)
}

// transmit moves the clock past a transmission of length d that starts
// now, and re-anchors it at the transmission's end.
func (c *slotClock) transmit(d float64) {
	c.anchor, c.k = c.now+d, 0
	c.now = c.anchor
}

// slotsBefore returns how many τ-slots from now on start before t, the
// stop rule of every idle skip.  The quotient's ceiling can be one slot
// off the formula's, so one step against the formula fixes it.
func (c *slotClock) slotsBefore(t float64) int64 {
	q := math.Ceil((t - c.anchor) / c.tau)
	if !(q > float64(c.k)) {
		q = float64(c.k)
	}
	m := int64(math.Min(q, 1<<62)) // the first slot at or after t
	if c.at(m) < t {
		m++
	} else if m > c.k && c.at(m-1) >= t {
		m--
	}
	return m - c.k
}
