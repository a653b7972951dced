// Package station models the distributed senders of the multiple-access
// network and their arrival processes.  A Station is one sender's
// pending queue, ordered by arrival time: it transmits exactly when one
// of its messages falls inside the commonly enabled window.  A Bank is a
// whole population's arrival streams, one per station, merged into one
// global (time, station) order.
//
// Arrival processes are pluggable.  The paper's analysis assumes Poisson
// traffic; the packetized-voice example uses an on/off (talkspurt)
// source, whose superposition across many stations the Poisson analysis
// approximates.  The simulators draw Poisson traffic as one network-wide
// stream (M independent Poisson(λ′/M) streams merge into one
// Poisson(λ′) stream) and use a Bank for the other processes.
package station

import (
	"fmt"

	"windowctl/internal/pendq"
	"windowctl/internal/rngutil"
	"windowctl/internal/window"
)

// Message is one fixed-length message awaiting transmission.
type Message struct {
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

// String implements ArrivalProcess.
func (o *OnOff) String() string {
	return fmt.Sprintf("OnOff(onRate=%g, on=%g, off=%g)", o.OnRate, o.MeanOn, o.MeanOff)
}

// Station is one sender's pending queue: the messages it holds, ordered
// by arrival time.  It generates nothing; the engine pushes the arrivals
// it draws for the station.
type Station struct {
	id    int
	queue pendq.Queue[Message] // pending messages, keyed by arrival time
}

// New creates station id with an empty queue.
func New(id int) *Station { return &Station{id: id} }

// Push queues a message that arrived at the station at time at, which
// must not be earlier than any message pushed before it (the engines
// push in arrival order).
func (s *Station) Push(at float64) {
	s.queue.Push(at, Message{Origin: s.id, Arrival: at})
}

// QueueLen returns the number of pending messages.
func (s *Station) QueueLen() int { return s.queue.Len() }

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
// time strictly below the horizon (policy element (4)), calling fn on
// each in arrival order, and returns how many were dropped.
func (s *Station) DiscardArrivedBeforeFunc(horizon float64, fn func(Message)) int {
	return s.queue.DiscardBelow(horizon, func(_ float64, m Message) { fn(m) })
}
