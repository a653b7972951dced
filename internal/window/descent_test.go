package window_test

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"windowctl/internal/metrics"
	"windowctl/internal/protocol/acdc"
	"windowctl/internal/rngutil"
	"windowctl/internal/window"
)

// sideSwitch is Controlled except that from split depth `at` on it
// enables the newer half: a policy that does not keep one side per
// process, which Descend must hand back to the Resolver.
type sideSwitch struct {
	window.Controlled
	at int
}

func (s sideSwitch) ChooseSide(_ window.View, _ window.Window, depth int) window.Side {
	if depth >= s.at {
		return window.Newer
	}
	return window.Older
}

// descentCase is one windowing process: a policy, the view it decides
// from, and the sorted arrival keys of the pending messages.
type descentCase struct {
	name string
	p    window.Policy
	v    window.View
	keys []float64
}

// sortedKeys is the test's KeyPair and content oracle over a sorted
// key slice.
type sortedKeys []float64

func (k sortedKeys) pair(side window.Side, w window.Window) (float64, float64) {
	if side == window.Older {
		i := sort.SearchFloat64s(k, w.Start)
		a, b := math.Inf(1), math.Inf(1)
		if i < len(k) {
			a = k[i]
		}
		if i+1 < len(k) {
			b = k[i+1]
		}
		return a, b
	}
	j := sort.SearchFloat64s(k, w.End)
	a, b := math.Inf(-1), math.Inf(-1)
	if j >= 1 {
		a = k[j-1]
	}
	if j >= 2 {
		b = k[j-2]
	}
	return a, b
}

func (k sortedKeys) count(w window.Window) int {
	return sort.SearchFloat64s(k, w.End) - sort.SearchFloat64s(k, w.Start)
}

// outcome is what either path concluded about one process.
type outcome struct {
	idle, collisions, splits int
	success                  bool
	successWindow            window.Window
	examined                 []window.Window // coalesced
	panicked                 string
}

func (o outcome) String() string {
	if o.panicked != "" {
		return "panic: " + o.panicked
	}
	return fmt.Sprintf("idle=%d collisions=%d splits=%d success=%v window=%v examined=%v",
		o.idle, o.collisions, o.splits, o.success, o.successWindow, o.examined)
}

func coalesce(ws ...window.Window) []window.Window {
	var s window.IntervalSet
	for _, w := range ws {
		s.Add(w)
	}
	return s.AppendTo(nil)
}

// viaResolver runs the process probe by probe, with a collector counting
// the splits.
func viaResolver(c descentCase) (o outcome) {
	col := metrics.NewSlotMetrics(1, 16)
	defer func() {
		if r := recover(); r != nil {
			o = outcome{splits: int(col.Splits), panicked: fmt.Sprint(r)}
		}
	}()
	rep, err := window.RunProcessObserved(c.p, c.v, sortedKeys(c.keys).count, col)
	if err != nil {
		panic(err)
	}
	for _, s := range rep.Steps {
		switch s.Outcome {
		case window.Idle:
			o.idle++
		case window.Collision:
			o.collisions++
		}
	}
	o.splits = int(col.Splits)
	o.success, o.successWindow = rep.Success, rep.SuccessWindow
	o.examined = coalesce(rep.Examined...)
	return o
}

// viaDescent runs the same process through Descend.
func viaDescent(c descentCase) (o outcome, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			o, ok = outcome{panicked: fmt.Sprint(r)}, true
		}
	}()
	w, err := window.ClampedInitialWindow(c.p, c.v)
	if err != nil {
		panic(err)
	}
	d, ok := window.Descend(c.p, c.v, w, sortedKeys(c.keys).pair)
	if !ok {
		return outcome{}, false
	}
	return outcome{
		idle: d.Idle, collisions: d.Collisions, splits: d.Splits,
		success: d.Success, successWindow: d.SuccessWindow,
		examined: coalesce(d.Examined),
	}, true
}

func sameOutcome(a, b outcome) bool {
	if a.panicked != "" || b.panicked != "" {
		return a.panicked == b.panicked
	}
	if a.idle != b.idle || a.collisions != b.collisions || a.splits != b.splits ||
		a.success != b.success || a.successWindow != b.successWindow || len(a.examined) != len(b.examined) {
		return false
	}
	for i := range a.examined {
		if a.examined[i] != b.examined[i] {
			return false
		}
	}
	return true
}

// checkDescent compares the two paths on one case.  Descend may decline
// only for a policy that switches sides within the process, and then
// exactly when the Resolver reached the switching split.
func checkDescent(t *testing.T, c descentCase) {
	t.Helper()
	want := viaResolver(c)
	got, ok := viaDescent(c)
	if !ok {
		sw, switches := c.p.(sideSwitch)
		if !switches || want.splits <= sw.at {
			t.Fatalf("%s: Descend declined a process that keeps one side (resolver: %v)\nkeys %v", c.name, want, c.keys)
		}
		return
	}
	if sw, switches := c.p.(sideSwitch); switches && want.splits > sw.at {
		t.Fatalf("%s: Descend took a process whose split %d switched sides (got %v, resolver %v)", c.name, sw.at, got, want)
	}
	if !sameOutcome(got, want) {
		t.Fatalf("%s: Descend %v, resolver %v\nview %+v\nkeys %v", c.name, got, want, c.v, c.keys)
	}
}

// Key-set shapes.
const (
	shapeUniform    = iota // spread past both ends of the view
	shapeMidpoints         // exactly on the process's split points
	shapeUlp               // pairs one ulp apart
	shapeCoincident        // a duplicated key: the depth bound
	shapeCluster           // many keys in a tiny span: deep splits
	shapeEdges             // on TPast, TNewest and the initial window's ends
	numShapes
)

var shapeNames = [numShapes]string{"uniform", "midpoints", "ulp", "coincident", "cluster", "edges"}

const numPolicies = 8

// makePolicy returns policy i of the matrix, its length drawn from r so
// that initial windows are sometimes clamped at TPast or TNewest.
func makePolicy(i int, r *rngutil.Stream) (string, window.Policy) {
	l := window.FixedLength(0.5 + r.Float64()*120)
	switch i {
	case 0:
		return "controlled-0.3", window.Controlled{Length: l, Fraction: 0.3}
	case 1:
		return "controlled-g", window.Controlled{Length: window.FixedG(0.5 + 3*r.Float64())}
	case 2:
		return "variant-newer", window.ControlledVariant{Length: l, Side: window.Newer, PositionLag: 20 * r.Float64()}
	case 3:
		return "variant-older-lag", window.ControlledVariant{Length: l, Side: window.Older, PositionLag: 20 * r.Float64()}
	case 4:
		return "fcfs", window.FCFS{Length: l}
	case 5:
		return "lcfs", window.LCFS{Length: l}
	case 6:
		p, err := acdc.New(0.5+3*r.Float64(), 0.5+0.5*r.Float64())
		if err != nil {
			panic(err)
		}
		return "acdc", p
	default:
		return "switch-at-2", sideSwitch{window.Controlled{Length: l}, 2}
	}
}

// makeCase builds one case of the matrix from a seed.
func makeCase(seed uint64, policy, shape, n int) descentCase {
	r := rngutil.New(seed)
	name, p := makePolicy(policy%numPolicies, r)
	past := 50 * r.Float64()
	now := past + 1 + 100*r.Float64()
	v := window.View{Now: now, TPast: past, TNewest: now, K: 50, Tau: 1, Lambda: 0.05 + r.Float64()}
	var keys []float64
	uniform := func(k int) {
		for i := 0; i < k; i++ {
			keys = append(keys, past-10+(now-past+20)*r.Float64())
		}
	}
	w, err := window.ClampedInitialWindow(p, v)
	if err != nil {
		w = window.Window{Start: past, End: now}
	}
	shape %= numShapes
	n = n%24 + 1
	switch shape {
	case shapeUniform:
		uniform(n)
	case shapeMidpoints:
		// Walk random paths of splits, keying every cut point.
		for path := 0; path < n; path++ {
			cur := w
			for depth := 0; depth < 1+int(r.Uint64()%12) && !cur.Empty(); depth++ {
				older, newer := cur.Split(p.SplitFraction(v, cur, depth))
				keys = append(keys, older.End)
				if r.Bernoulli(0.5) {
					cur = older
				} else {
					cur = newer
				}
			}
		}
		uniform(2)
	case shapeUlp:
		for i := 0; i < (n+1)/2; i++ {
			k := w.Start + w.Len()*r.Float64()
			keys = append(keys, k, math.Nextafter(k, math.Inf(1)))
		}
		uniform(n % 3)
	case shapeCoincident:
		k := w.Start + w.Len()*r.Float64()
		keys = append(keys, k, k)
		uniform(n % 4)
	case shapeCluster:
		base := w.Start + w.Len()*r.Float64()
		for i := 0; i < n; i++ {
			keys = append(keys, base+1e-9*r.Float64())
		}
	case shapeEdges:
		keys = append(keys, past, now, w.Start, w.End, math.Nextafter(w.End, math.Inf(-1)))
		uniform(n % 3)
	}
	sort.Float64s(keys)
	if shape != shapeCoincident {
		keys = slices.Compact(keys) // only that shape may repeat a key
	}
	return descentCase{
		name: fmt.Sprintf("%s/%s/seed=%d/n=%d", name, shapeNames[shape], seed, n),
		p:    p, v: v, keys: keys,
	}
}

// TestDescentMatchesResolver runs every policy against every key-set
// shape over a fixed set of seeds: counts, success window, examined span
// and the collector's splits must equal the Resolver's, and a duplicated
// key must hit the same depth-bound panic on both paths.
func TestDescentMatchesResolver(t *testing.T) {
	for policy := 0; policy < numPolicies; policy++ {
		for shape := 0; shape < numShapes; shape++ {
			for seed := uint64(1); seed <= 40; seed++ {
				checkDescent(t, makeCase(seed*1000+uint64(policy*numShapes+shape), policy, shape, int(seed)))
			}
		}
	}
}

// TestDescentSpecialCases pins the cases the matrix reaches only by
// chance.
func TestDescentSpecialCases(t *testing.T) {
	ctl := window.Controlled{Length: window.FixedLength(8)}
	v := window.View{Now: 10, TPast: 2, TNewest: 10, K: 50, Tau: 1, Lambda: 1}
	for _, c := range []descentCase{
		// [2,10): the cut points are 6, 4 and 3; each key sits on one.
		{"on midpoints", ctl, v, []float64{3, 4, 6}},
		{"one ulp apart", ctl, v, []float64{5, math.Nextafter(5, 6)}},
		{"coincident", ctl, v, []float64{5, 5}},
		{"coincident lcfs", window.LCFS{Length: window.FixedLength(8)}, v, []float64{5, 5}},
		// Stepper stamps lead the clock by up to τ.
		{"keys past the window", ctl, v, []float64{9.5, 10.2, 10.7}},
		{"lcfs keys past the window", window.LCFS{Length: window.FixedLength(8)}, v, []float64{3, 9.5, 10.2, 10.7}},
		{"clamped at TPast", window.LCFS{Length: window.FixedLength(100)}, v, []float64{1, 2, 7}},
		{"clamped at TNewest", window.FCFS{Length: window.FixedLength(100)}, v, []float64{2, 9.99, 11}},
		{"nothing pending", ctl, v, nil},
		{"switch taken", sideSwitch{ctl, 2}, v, []float64{2.1, 2.2}},
		{"switch not reached", sideSwitch{ctl, 2}, v, []float64{3, 7}},
	} {
		checkDescent(t, c)
	}
	phantom := v
	phantom.MinSplitLen = 1
	w, _ := window.ClampedInitialWindow(ctl, phantom)
	if _, ok := window.Descend(ctl, phantom, w, sortedKeys{3, 4}.pair); ok {
		t.Error("Descend took a view with MinSplitLen set; the phantom give-up is the Resolver's")
	}
}

// FuzzDescentMatchesResolver is TestDescentMatchesResolver over fuzzed
// seeds, policies, shapes and sizes.
func FuzzDescentMatchesResolver(f *testing.F) {
	for shape := 0; shape < numShapes; shape++ {
		f.Add(uint64(shape+1), uint8(shape), uint8(shape), uint8(5))
	}
	f.Fuzz(func(t *testing.T, seed uint64, policy, shape, n uint8) {
		checkDescent(t, makeCase(seed, int(policy), int(shape), int(n)))
	})
}
