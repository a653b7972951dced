package window

import "fmt"

// KeyPair reports the two pending arrival keys nearest one end of the
// window w, nearest first: for Older, the two oldest live keys at or
// after w.Start (+Inf for each that does not exist); for Newer, the two
// newest live keys before w.End (−Inf for each that does not exist).
// Keys past w.End (Older) or before w.Start (Newer) are fine: the
// descent only compares them with the ends of windows inside w.
type KeyPair func(side Side, w Window) (nearest, second float64)

// Descent is the outcome of one perfect-feedback windowing process, as
// Descend computes it from two keys instead of a probe per slot.
type Descent struct {
	// Idle, Collisions and Splits count the process's idle probes,
	// collision probes and window splits.
	Idle, Collisions, Splits int
	// Success reports whether the process ended with a transmission;
	// SuccessWindow is then the window of the successful probe.
	Success       bool
	SuccessWindow Window
	// Examined is the span the process proved clear: a prefix of the
	// initial window when it split older-first, a suffix when
	// newer-first.  It is the union of Resolver.Examined, which is
	// contiguous under either rule.
	Examined Window
}

// Descend runs the windowing process over the initial window w (already
// clamped, as Resolver.Reset clamps it) without probing slot by slot.
//
// When every split enables the same side, the process is decided by the
// two keys nearest that side's end.  Older-first, the enabled window E
// always starts where everything before it in w is known clear, so it
// holds the live keys of [w.Start, E.End): with k1 < k2 the two oldest
// keys at or after w.Start, E is idle iff k1 ≥ E.End, a success iff
// k1 < E.End ≤ k2, and a collision otherwise.  Newer-first mirrors this
// with the two newest keys before w.End against E.Start.  The first
// probe, of w itself, reads the older pair; a first split to the newer
// side swaps in the newer pair.
//
// The policy is asked SplitFraction and ChooseSide with the same
// (view, window, depth) arguments, in the same order, as the Resolver
// asks them, and the split-depth bound panics as the Resolver's does.
// Descend reports ok = false — having computed nothing the caller must
// undo — when a split's side differs from the first split's, or when
// the view sets MinSplitLen; the caller then runs the Resolver.
func Descend(p Policy, v View, w Window, keys KeyPair) (d Descent, ok bool) {
	if v.MinSplitLen > 0 {
		return Descent{}, false
	}
	a, b := keys(Older, w)
	side := Older // settled by the first split
	e := w        // the enabled window
	var sib Window
	hasSib := false
	for {
		var n int // live keys in e, saturated at 2
		if side == Older {
			n = count(a < e.End) + count(b < e.End)
		} else {
			n = count(a >= e.Start) + count(b >= e.Start)
		}
		var split Window
		switch n {
		case 0:
			d.Idle++
			if !hasSib {
				d.Examined = w // the empty initial window
				return d, true
			}
			// The sibling holds two or more arrivals: split it at once.
			split = sib
		case 1:
			d.Success, d.SuccessWindow = true, e
			if side == Older {
				d.Examined = Window{w.Start, e.End}
			} else {
				d.Examined = Window{e.Start, w.End}
			}
			return d, true
		default:
			d.Collisions++
			split = e
		}
		if d.Splits >= maxSplitDepth {
			panic(fmt.Sprintf("window: split depth %d exceeded on %v — coincident arrival times?",
				maxSplitDepth, split))
		}
		older, newer := split.Split(p.SplitFraction(v, split, d.Splits))
		s := p.ChooseSide(v, split, d.Splits)
		if d.Splits == 0 {
			side = s
			if s == Newer {
				a, b = keys(Newer, w)
			}
		} else if s != side {
			return Descent{}, false
		}
		d.Splits++
		if s == Older {
			e, sib = older, newer
		} else {
			e, sib = newer, older
		}
		hasSib = true
	}
}

// count converts a comparison to 0 or 1.
func count(b bool) int {
	if b {
		return 1
	}
	return 0
}
