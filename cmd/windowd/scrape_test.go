package main

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// overloadOptions is windowbench's svc-overload shape (K = 5000, ρ′ = 2,
// M = 25) on a synthetic pump: a standing backlog, heavy shedding, and
// a success and its transmission booked on nearly every step.
func overloadOptions() options {
	o := figure7Options(1)
	o.k, o.load = 5000, 2
	o.synthetic = true
	return o
}

// publish allocates the engineStatus it stores and nothing else: the
// collector copy it carries is one of two buffers filled in place.
func TestPublishAllocs(t *testing.T) {
	_, p := barePump(t, overloadOptions())
	for i := 0; i < 5000; i++ {
		if err := p.step(); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(100, func() { p.publish(nil) }); a != 1 {
		t.Errorf("publish: %v allocs per call, want 1 (the engineStatus)", a)
	}
}

// A copy a scrape has pinned is never refilled: two publishes later the
// pinned status still renders the counters it was published with, and
// the pump has replaced that buffer instead.
func TestPublishKeepsPinnedCopy(t *testing.T) {
	srv, p := barePump(t, overloadOptions())
	p.publish(nil)
	st := srv.pinStatus()
	tx := st.col.m.Transmissions
	for i := 0; i < 3; i++ {
		for j := 0; j < 1000; j++ {
			if err := p.step(); err != nil {
				t.Fatal(err)
			}
		}
		p.publish(nil)
	}
	if got := st.col.m.Transmissions; got != tx {
		t.Errorf("pinned copy refilled under the scrape: transmissions %d, published as %d", got, tx)
	}
	if st.col == p.copies[0] || st.col == p.copies[1] {
		t.Error("the pump still holds the pinned copy for reuse")
	}
	st.unpin()
	if srv.shared.Transmissions == tx {
		t.Fatal("setup: the steps transmitted nothing")
	}
}

// Every /metrics scrape is exact as of one publish.  Before the pump
// owned its collector, a success slot and its transmission were booked
// under separate locks of a shared collector, so a scrape landing
// between them read windowd_success_slots_total one ahead of
// windowd_transmissions_total.  Under overload nearly every step books
// both.  2000 scrapes of a running pump, from four scrapers at once so
// that copies are pinned while the pump publishes, must each see the two
// equal, accepted + late equal to transmissions, and a step count the
// pump published (on a running synthetic pump, a multiple of 1024).
func TestMetricsScrapesAreExact(t *testing.T) {
	s, err := newServer(overloadOptions())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.routes())
	defer func() {
		ts.Close()
		s.beginDrain()
		<-s.done
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.status.Load().Steps == 0 {
		if time.Now().After(deadline) {
			t.Fatal("synthetic pump published no steps")
		}
		time.Sleep(time.Millisecond)
	}
	const scrapers, perScraper = 4, 500
	distinct := make([]int, scrapers)
	var wg sync.WaitGroup
	for w := 0; w < scrapers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var lastSteps int64
			for i := 0; i < perScraper; i++ {
				m, err := scrapeMetrics(ts.URL)
				if err != nil {
					t.Error(err)
					return
				}
				tx, succ := m["windowd_transmissions_total"], m["windowd_success_slots_total"]
				acc, late := m["windowd_accepted_total"], m["windowd_late_total"]
				steps := m["windowd_steps_total"]
				switch {
				case succ != tx:
					t.Errorf("scraper %d, scrape %d: windowd_success_slots_total %d != windowd_transmissions_total %d", w, i, succ, tx)
				case acc+late != tx:
					t.Errorf("scraper %d, scrape %d: windowd_accepted_total %d + windowd_late_total %d != windowd_transmissions_total %d", w, i, acc, late, tx)
				case steps%1024 != 0 || steps < lastSteps:
					t.Errorf("scraper %d, scrape %d: windowd_steps_total %d after %d: not a step count the pump published", w, i, steps, lastSteps)
				case m["windowd_conservation_ok"] != 1:
					t.Errorf("scraper %d, scrape %d: windowd_conservation_ok %d", w, i, m["windowd_conservation_ok"])
				default:
					if steps != lastSteps {
						distinct[w]++
					}
					lastSteps = steps
					continue
				}
				return
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, d := range distinct {
		total += d
	}
	if total < 10 {
		t.Errorf("only %d distinct publishes across %d scrapes: the pump was not running", total, scrapers*perScraper)
	}
}

// scrapeMetrics reads the unlabelled integer series of one /metrics
// scrape.
func scrapeMetrics(base string) (map[string]int64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.ContainsRune(name, '{') {
			continue
		}
		if v, err := strconv.ParseInt(val, 10, 64); err == nil {
			m[name] = v
		}
	}
	return m, sc.Err()
}
