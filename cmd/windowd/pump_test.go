package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"windowctl/internal/metrics"
	"windowctl/internal/rngutil"
)

// A synthetic pump never parks, so the only way it sees a /config POST
// or the drain is the ctrlWaiting poll at its loop head: concurrent swaps
// must all be applied and the drain must finish.
func TestSaturatedPumpServesControl(t *testing.T) {
	o := testOptions()
	o.synthetic = true
	s, err := newServer(o)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	deadline := time.Now().Add(5 * time.Second)
	for s.status.Load().Steps == 0 {
		if time.Now().After(deadline) {
			t.Fatal("synthetic pump published no steps")
		}
		time.Sleep(time.Millisecond)
	}
	var wg sync.WaitGroup
	for _, km := range []int{2, 3, 4, 5} {
		wg.Add(1)
		go func(km int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/config", "application/json", strings.NewReader(fmt.Sprintf(`{"km": %d}`, km)))
			if err != nil {
				t.Error(err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("/config POST km=%d on a saturated pump: status %d: %s", km, resp.StatusCode, body)
				return
			}
			var cfg map[string]any
			if err := json.Unmarshal(body, &cfg); err != nil {
				t.Error(err)
				return
			}
			if cfg["k"] == 10.0 {
				t.Errorf("config km=%d did not apply: k is still the initial 10", km)
			}
		}(km)
	}
	wg.Wait()
	if s.ctrlWaiting.Load() != 0 {
		t.Errorf("ctrlWaiting = %d after every handoff returned, want 0", s.ctrlWaiting.Load())
	}

	s.beginDrain()
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		t.Fatal("saturated pump never noticed the drain")
	}
	if fin := s.final.Load(); fin == nil || fin.err != nil {
		t.Fatalf("drain after swap: %+v", fin)
	}
}

// One pump iteration on a warm engine — absorbing a booked arrival, then
// advancing — allocates nothing.
func TestPumpIterationZeroAlloc(t *testing.T) {
	srv, p := barePump(t, testOptions())
	iter := func() {
		srv.ingested.Add(1)
		p.absorb()
		if err := p.advance(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20000; i++ {
		iter()
	}
	if a := testing.AllocsPerRun(2000, iter); a != 0 {
		t.Errorf("absorb + advance: %v allocs per iteration, want 0", a)
	}
}

// advance's memoised release draw must reproduce, step for step, the loop
// that calls Poisson(λ′·elapsed) afresh each epoch: same clock, same step
// count, same final report, both when synthetic and when the owed ledger
// runs out and clamps the release.
func TestAdvanceMatchesDirectPoisson(t *testing.T) {
	for _, tc := range []struct {
		name      string
		synthetic bool
		owed      int64
	}{
		{"synthetic", true, 0},
		{"owed ledger", false, 1000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 30000
			o := testOptions()
			o.synthetic = tc.synthetic
			_, p := barePump(t, o)
			p.owed = tc.owed
			for i := 0; i < n; i++ {
				if err := p.advance(); err != nil {
					t.Fatal(err)
				}
			}

			st, _, err := o.engine(metrics.NewShared(o.tau, 256))
			if err != nil {
				t.Fatal(err)
			}
			rel := rngutil.New(o.seed ^ 0x6a09e667f3bcc909)
			owed := tc.owed
			for i := 0; i < n; i++ {
				before := st.Now()
				if err := st.Step(); err != nil {
					t.Fatal(err)
				}
				k := int64(rel.Poisson(o.lambda() * (st.Now() - before)))
				if !o.synthetic {
					k = min(k, owed)
					owed -= k
				}
				st.Inject(int(k))
			}
			if !o.synthetic && owed != 0 {
				t.Fatalf("setup: the ledger never ran dry (%d owed), so the clamp went untested", owed)
			}

			if p.steps != n {
				t.Errorf("steps = %d, want %d", p.steps, n)
			}
			if p.st.Now() != st.Now() {
				t.Errorf("Now() = %v, reference loop %v", p.st.Now(), st.Now())
			}
			if p.owed != owed {
				t.Errorf("owed = %d, reference loop %d", p.owed, owed)
			}
			got, err := p.st.Finish()
			if err != nil {
				t.Fatal(err)
			}
			want, err := st.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("report diverged:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
