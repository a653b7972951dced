// Package station models the distributed senders of the multiple-access
// network: each station generates its own message arrivals, holds the
// pending ones in a local queue ordered by arrival time, and participates
// in the window protocol by transmitting exactly when one of its pending
// messages falls inside the commonly enabled window.
//
// Arrival generation is pluggable.  The paper's analysis assumes Poisson
// traffic; the packetized-voice example uses an on/off (talkspurt) source,
// whose superposition across many stations the Poisson analysis
// approximates.
package station

import (
	"fmt"
	"math"

	"windowctl/internal/metrics"
	"windowctl/internal/pendq"
	"windowctl/internal/rngutil"
	"windowctl/internal/window"
)

// Message is one fixed-length message awaiting transmission.
type Message struct {
	// ID is unique across the simulation.
	ID int64
	// Origin is the generating station's index.
	Origin int
	// Arrival is the absolute arrival time at the sending station.
	Arrival float64
}

// ArrivalProcess generates successive inter-arrival gaps.
type ArrivalProcess interface {
	// NextGap returns the time from the previous arrival to the next one;
	// it must be strictly positive.
	NextGap(r *rngutil.Stream) float64
	// String describes the process.
	String() string
}

// Poisson is a Poisson arrival process with the given rate.
type Poisson struct{ Rate float64 }

// NextGap implements ArrivalProcess.
func (p Poisson) NextGap(r *rngutil.Stream) float64 { return r.Exp(p.Rate) }

// String implements ArrivalProcess.
func (p Poisson) String() string { return fmt.Sprintf("Poisson(rate=%g)", p.Rate) }

// OnOff is a two-state talkspurt source: during an ON period (mean
// duration MeanOn) arrivals are Poisson at OnRate; OFF periods (mean
// MeanOff) generate nothing.  Both period lengths are exponential.  It
// models a packetized-voice speaker, the motivating application of the
// paper's introduction.
type OnOff struct {
	// OnRate is the arrival rate while talking.
	OnRate float64
	// MeanOn and MeanOff are the mean talkspurt and silence durations.
	MeanOn, MeanOff float64

	on        bool
	stateLeft float64
}

// NextGap implements ArrivalProcess.
func (o *OnOff) NextGap(r *rngutil.Stream) float64 {
	if o.OnRate <= 0 || o.MeanOn <= 0 || o.MeanOff <= 0 {
		panic("station: OnOff needs positive OnRate, MeanOn, MeanOff")
	}
	gap := 0.0
	for {
		if !o.on {
			// Skip the rest of the silence, then start a talkspurt.
			gap += o.stateLeft
			o.stateLeft = r.Exp(1 / o.MeanOn)
			o.on = true
		}
		candidate := r.Exp(o.OnRate)
		if candidate <= o.stateLeft {
			o.stateLeft -= candidate
			return gap + candidate
		}
		// Talkspurt ended before the next packet: enter silence.
		gap += o.stateLeft
		o.on = false
		o.stateLeft = r.Exp(1 / o.MeanOff)
	}
}

// MeanRate returns the long-run arrival rate of the on/off source.
func (o *OnOff) MeanRate() float64 {
	return o.OnRate * o.MeanOn / (o.MeanOn + o.MeanOff)
}

// String implements ArrivalProcess.
func (o *OnOff) String() string {
	return fmt.Sprintf("OnOff(onRate=%g, on=%g, off=%g)", o.OnRate, o.MeanOn, o.MeanOff)
}

// Station is one sender.
type Station struct {
	id        int
	proc      ArrivalProcess
	rng       *rngutil.Stream
	nextID    *int64 // shared message-ID counter
	nextAt    float64
	queue     pendq.Queue[Message] // pending messages, keyed by arrival time
	created   int64
	collector metrics.Collector // nil unless Observe was called
}

// New creates a station.  nextID is a shared counter used to assign
// globally unique message IDs; pass the same pointer to every station.
func New(id int, proc ArrivalProcess, rng *rngutil.Stream, nextID *int64) *Station {
	if proc == nil || rng == nil || nextID == nil {
		panic("station: nil dependency")
	}
	s := &Station{id: id, proc: proc, rng: rng, nextID: nextID}
	s.nextAt = proc.NextGap(rng)
	return s
}

// ID returns the station index.
func (s *Station) ID() int { return s.id }

// Observe attaches a metrics collector: generated arrivals and element-(4)
// discards at this station are reported to it.  Pass nil to detach.  The
// same collector may be shared by every station of a simulation — message
// events are disjoint across stations.
func (s *Station) Observe(c metrics.Collector) { s.collector = c }

// GenerateUntil materializes every arrival with time <= t into the queue
// and returns how many were added.
func (s *Station) GenerateUntil(t float64) int {
	added := 0
	for s.nextAt <= t {
		id := *s.nextID
		*s.nextID++
		s.queue.Push(s.nextAt, Message{ID: id, Origin: s.id, Arrival: s.nextAt})
		s.created++
		added++
		gap := s.proc.NextGap(s.rng)
		if gap <= 0 {
			panic("station: arrival process returned non-positive gap")
		}
		s.nextAt += gap
	}
	if s.collector != nil && added > 0 {
		s.collector.RecordArrivals(int64(added))
	}
	return added
}

// QueueLen returns the number of pending messages.
func (s *Station) QueueLen() int { return s.queue.Len() }

// Created returns the total number of messages generated so far.
func (s *Station) Created() int64 { return s.created }

// CountIn returns how many pending messages have arrival times inside w.
func (s *Station) CountIn(w window.Window) int {
	return s.queue.CountIn(w.Start, w.End)
}

// PopOldestIn removes and returns the oldest pending message inside w.
func (s *Station) PopOldestIn(w window.Window) (Message, bool) {
	_, m, ok := s.queue.PopFirstIn(w.Start, w.End)
	return m, ok
}

// DiscardArrivedBeforeFunc removes every pending message with arrival
// time strictly below the horizon (policy element (4)), calling fn (if
// non-nil) on each in arrival order, and returns how many were dropped.
// It is the allocation-free form the simulation engines use per decision
// epoch.
func (s *Station) DiscardArrivedBeforeFunc(horizon float64, fn func(Message)) int {
	var n int
	if fn == nil {
		n = s.queue.DiscardBelow(horizon, nil)
	} else {
		n = s.queue.DiscardBelow(horizon, func(_ float64, m Message) { fn(m) })
	}
	if n > 0 && s.collector != nil {
		s.collector.RecordDiscards(int64(n))
	}
	return n
}

// DiscardArrivedBefore removes and returns every pending message with
// arrival time strictly below the horizon.  It allocates the returned
// slice; hot paths should use DiscardArrivedBeforeFunc.
func (s *Station) DiscardArrivedBefore(horizon float64) []Message {
	var dropped []Message
	s.DiscardArrivedBeforeFunc(horizon, func(m Message) { dropped = append(dropped, m) })
	return dropped
}

// Oldest returns the oldest pending message without removing it.
func (s *Station) Oldest() (Message, bool) {
	_, m, ok := s.queue.FirstIn(math.Inf(-1), math.Inf(1))
	return m, ok
}
