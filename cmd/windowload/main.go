// Command windowload drives a running windowd with synthetic load and
// reports what the service achieved: a saturation load generator for the
// admission-control story.
//
// Three arrival models:
//
//   - poisson (default): open-loop Poisson at -rate messages/second —
//     batch counts are drawn per tick, so the offered process is Poisson
//     regardless of tick granularity, and rates up to millions of
//     messages/second cost only one small HTTP request per tick.
//   - voice: -stations packet-voice speakers with exponential
//     talkspurt/silence alternation (32 pkt/s during 1 s talkspurts,
//     1.35 s silences — the examples/packetvoice model); -rate is ignored.
//   - sensor: -stations periodic sensors, each reporting once per
//     -period with uniform phase jitter (the examples/sensornet shape);
//     -rate is ignored.
//
// Two transports:
//
//   - http (default): counts ship as NDJSON on windowd's /ingest, one
//     {"count":N} line per tick.
//   - tcp: counts ship as internal/wire frames over -conns pipelined
//     connections to the target's -listen-tcp plane (address
//     autodiscovered from /config, or set with -tcp-target); per-tick
//     draws split into batch counts of at most -batch messages, and the
//     reported ingest latency is the per-frame round trip from socket
//     write to covering ack.
//
// The generator scrapes /debug/vars before and after the run and prints
// the deltas: achieved throughput, element-(4) shed fraction, channel
// utilization — plus its own ingest-latency percentiles from a
// stats.Histogram.
//
// Exit status: 0 on a clean run, 1 when the target misbehaves (ingest
// rejected, scrape failed), 2 on usage errors.
//
// Usage:
//
//	windowload [-target http://127.0.0.1:8343] [-duration 10s]
//	           [-transport http|tcp] [-source poisson|voice|sensor]
//	           [-rate 1e6] [-stations 50] [-period 1s] [-tick 2ms]
//	           [-conns 4] [-batch 256] [-crc] [-tcp-target ADDR]
//	           [-seed 1]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"windowctl/internal/metrics"
	"windowctl/internal/rngutil"
	"windowctl/internal/stats"
	"windowctl/internal/wire"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case errors.As(err, new(usageError)):
		fmt.Fprintln(os.Stderr, "windowload:", err)
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "windowload:", err)
		os.Exit(1)
	}
}

// usageError marks a command-line validation failure (exit 2).
type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("windowload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	target := fs.String("target", "http://127.0.0.1:8343", "windowd base URL")
	duration := fs.Duration("duration", 10*time.Second, "how long to generate load")
	transport := fs.String("transport", "http", "ingest transport: http | tcp")
	sourceFlag := fs.String("source", "poisson", "arrival model: poisson | voice | sensor")
	rate := fs.Float64("rate", 1e6, "offered messages/second (poisson source)")
	stations := fs.Int("stations", 50, "number of sources (voice and sensor sources)")
	period := fs.Duration("period", time.Second, "per-sensor report period (sensor source)")
	tick := fs.Duration("tick", 2*time.Millisecond, "batching interval: one ingest operation per tick")
	conns := fs.Int("conns", 4, "parallel connections (tcp transport)")
	batch := fs.Int("batch", 256, "max messages per batch count in a TCP frame (tcp transport)")
	crc := fs.Bool("crc", false, "append CRC32C trailers to TCP frames (tcp transport)")
	tcpTarget := fs.String("tcp-target", "", "TCP ingest address (default: autodiscover from the target's /config)")
	seed := fs.Uint64("seed", 1, "random seed for the arrival draws")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	if fs.NArg() > 0 {
		return usageError{fmt.Errorf("unexpected arguments: %v", fs.Args())}
	}
	if *duration <= 0 || *tick <= 0 || *period <= 0 {
		return usageError{fmt.Errorf("need positive -duration, -tick and -period (got %v, %v, %v)", *duration, *tick, *period)}
	}
	if *rate <= 0 || *stations <= 0 {
		return usageError{fmt.Errorf("need positive -rate and -stations (got %v, %d)", *rate, *stations)}
	}
	if *transport != "http" && *transport != "tcp" {
		return usageError{fmt.Errorf("-transport must be http or tcp, got %q", *transport)}
	}
	if *conns <= 0 || *batch <= 0 {
		return usageError{fmt.Errorf("need positive -conns and -batch (got %d, %d)", *conns, *batch)}
	}
	src, err := newSource(*sourceFlag, *rate, *stations, *period, *tick, *seed)
	if err != nil {
		return usageError{err}
	}

	client := &http.Client{Timeout: 10 * time.Second}
	before, err := scrape(client, *target)
	if err != nil {
		return fmt.Errorf("scraping %s before the run: %w", *target, err)
	}

	// Ingest latency at 100 µs resolution out to 100 ms, overflow beyond.
	lat := stats.NewHistogram(1e-4, 1000)
	var sh shipper
	switch *transport {
	case "http":
		sh = &httpShipper{client: client, target: *target, lat: lat}
	case "tcp":
		addr := *tcpTarget
		if addr == "" {
			if addr, err = discoverTCP(client, *target); err != nil {
				return err
			}
		}
		ts := &tcpShipper{batch: uint32(*batch)}
		for i := 0; i < *conns; i++ {
			c, err := wire.Dial(addr, wire.ClientConfig{
				Credit: 1 << 12, CRC: *crc,
				OnAck: func(rtt time.Duration) { lat.Add(rtt.Seconds()) },
			})
			if err != nil {
				ts.closeAll()
				return fmt.Errorf("dialing tcp ingest %s: %w", addr, err)
			}
			ts.clients = append(ts.clients, c)
		}
		defer ts.closeAll()
		sh = ts
	}

	var sent, ops int64
	start := time.Now()
	ticker := time.NewTicker(*tick)
	defer ticker.Stop()
	for now := start; now.Sub(start) < *duration; now = <-ticker.C {
		n := src.draw()
		if n == 0 {
			continue
		}
		done, err := sh.ship(n)
		ops += done
		if err != nil {
			return fmt.Errorf("after %d operations: %w", ops, err)
		}
		sent += int64(n)
	}
	// Settle outstanding work (flush + acks on tcp) inside the timed span:
	// offered throughput only counts messages the target accounted for.
	if err := sh.finish(); err != nil {
		return fmt.Errorf("settling ingest after %d operations: %w", ops, err)
	}
	elapsed := time.Since(start).Seconds()

	after, err := scrape(client, *target)
	if err != nil {
		return fmt.Errorf("scraping %s after the run: %w", *target, err)
	}

	arr := after.Snap.Arrivals - before.Snap.Arrivals
	tx := after.Snap.Transmissions - before.Snap.Transmissions
	shed := after.Snap.Discards - before.Snap.Discards
	fmt.Fprintf(stdout, "windowload: source=%s transport=%s duration=%.2fs\n", *sourceFlag, *transport, elapsed)
	fmt.Fprintf(stdout, "offered             %d msgs (%.0f msgs/s over %d operations)\n", sent, float64(sent)/elapsed, ops)
	fmt.Fprintf(stdout, "scheduled by target %d msgs (owed backlog %d)\n", arr, after.Engine.OwedArrivals)
	fmt.Fprintf(stdout, "transmitted         %d msgs (%.0f msgs/s achieved)\n", tx, float64(tx)/elapsed)
	if d := tx + shed; d > 0 {
		fmt.Fprintf(stdout, "shed fraction       %.4f (%d element-(4) discards / %d decided)\n", float64(shed)/float64(d), shed, d)
	}
	fmt.Fprintf(stdout, "target virtual time %.0f (backlog %d, conservation %s)\n",
		after.Engine.VirtualNow, after.Engine.Backlog, after.Engine.Conservation)
	if lat.N() > 0 {
		fmt.Fprintf(stdout, "ingest latency      p50=%.3gms p95=%.3gms p99=%.3gms max-bin=%.3gms\n",
			1e3*lat.Quantile(0.5), 1e3*lat.Quantile(0.95), 1e3*lat.Quantile(0.99), 1e3*lat.Quantile(1))
	}
	if after.Engine.Conservation != "ok" {
		return fmt.Errorf("target reports a conservation violation: %s", after.Engine.Conservation)
	}
	if sent > 0 && arr == 0 && after.Engine.OwedArrivals == 0 {
		return fmt.Errorf("target never booked the offered load")
	}
	return nil
}

// shipper moves one tick's worth of messages to the target.  ship
// returns how many ingest operations (HTTP requests or TCP frames) it
// performed; finish settles anything still in flight.
type shipper interface {
	ship(n int) (ops int64, err error)
	finish() error
}

// httpShipper posts one NDJSON batch count per tick to /ingest, timing
// each request.
type httpShipper struct {
	client *http.Client
	target string
	lat    *stats.Histogram
}

func (h *httpShipper) ship(n int) (int64, error) {
	body := fmt.Sprintf("{\"count\":%d}\n", n)
	t0 := time.Now()
	resp, err := h.client.Post(h.target+"/ingest", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return 1, fmt.Errorf("ingest rejected: status %d", resp.StatusCode)
	}
	h.lat.Add(time.Since(t0).Seconds())
	return 1, nil
}

func (h *httpShipper) finish() error { return nil }

// tcpShipper frames each tick's draw as batch counts of at most batch
// messages, spreading frames round-robin over pipelined connections.
// Latency lands in the histogram through each client's OnAck callback.
type tcpShipper struct {
	clients []*wire.Client
	batch   uint32
	next    int
	counts  []uint32
}

func (t *tcpShipper) ship(n int) (int64, error) {
	if t.counts == nil {
		t.counts = make([]uint32, 0, wire.DefaultMaxCounts)
	}
	var ops int64
	for n > 0 {
		t.counts = t.counts[:0]
		for n > 0 && len(t.counts) < cap(t.counts) {
			c := n
			if c > int(t.batch) {
				c = int(t.batch)
			}
			t.counts = append(t.counts, uint32(c))
			n -= c
		}
		c := t.clients[t.next%len(t.clients)]
		t.next++
		if err := c.Send(t.counts); err != nil {
			return ops, err
		}
		ops++
	}
	return ops, nil
}

func (t *tcpShipper) finish() error {
	var first error
	for _, c := range t.clients {
		if err := c.Drain(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (t *tcpShipper) closeAll() {
	for _, c := range t.clients {
		c.Close()
	}
}

// discoverTCP asks the target's /config for its bound -listen-tcp
// address.
func discoverTCP(client *http.Client, target string) (string, error) {
	resp, err := client.Get(target + "/config")
	if err != nil {
		return "", fmt.Errorf("discovering tcp ingest via %s/config: %w", target, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("/config: status %d", resp.StatusCode)
	}
	var cfg struct {
		TCPAddr string `json:"tcp_addr"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cfg); err != nil {
		return "", err
	}
	if cfg.TCPAddr == "" {
		return "", fmt.Errorf("target has no TCP ingest plane (windowd -listen-tcp is off); use -tcp-target to override")
	}
	return cfg.TCPAddr, nil
}

// scrapeResult is the subset of /debug/vars the generator reads.
type scrapeResult struct {
	Snap   metrics.Snapshot `json:"windowd"`
	Engine struct {
		VirtualNow   float64 `json:"virtual_now"`
		Backlog      int     `json:"backlog"`
		OwedArrivals int64   `json:"owed_arrivals"`
		Conservation string  `json:"conservation"`
	} `json:"windowd_engine"`
}

func scrape(client *http.Client, target string) (scrapeResult, error) {
	var out scrapeResult
	resp, err := client.Get(target + "/debug/vars")
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("/debug/vars: status %d", resp.StatusCode)
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// source draws the number of messages arriving in one tick.
type source interface{ draw() int }

func newSource(model string, rate float64, stations int, period, tick time.Duration, seed uint64) (source, error) {
	switch model {
	case "poisson":
		return &poissonSource{rng: rngutil.New(seed), mean: rate * tick.Seconds()}, nil
	case "voice":
		return newVoiceSource(stations, tick, seed), nil
	case "sensor":
		return newSensorSource(stations, period, tick, seed), nil
	}
	return nil, fmt.Errorf("-source must be poisson, voice or sensor, got %q", model)
}

// poissonSource is the open-loop saturation model: each tick carries a
// Poisson count, so the offered process is Poisson at any rate without
// per-message work.
type poissonSource struct {
	rng  *rngutil.Stream
	mean float64
}

func (p *poissonSource) draw() int { return int(p.rng.Poisson(p.mean)) }

// voiceSource is the examples/packetvoice speech model: each speaker
// alternates exponential talkspurts (mean 1 s, 32 pkt/s) and silences
// (mean 1.35 s); the tick count sums Poisson packet draws over the
// speakers currently talking.
type voiceSource struct {
	rng     *rngutil.Stream
	tick    float64
	on      []bool
	remain  []float64 // seconds until the speaker flips state
	pktTick float64   // mean packets per tick while talking
}

const (
	voicePktRateOn = 32.0
	voiceMeanOn    = 1.0
	voiceMeanOff   = 1.35
)

func newVoiceSource(stations int, tick time.Duration, seed uint64) *voiceSource {
	v := &voiceSource{
		rng: rngutil.New(seed), tick: tick.Seconds(),
		on: make([]bool, stations), remain: make([]float64, stations),
		pktTick: voicePktRateOn * tick.Seconds(),
	}
	activity := voiceMeanOn / (voiceMeanOn + voiceMeanOff)
	for i := range v.on {
		v.on[i] = v.rng.Bernoulli(activity)
		if v.on[i] {
			v.remain[i] = v.rng.Exp(1 / voiceMeanOn)
		} else {
			v.remain[i] = v.rng.Exp(1 / voiceMeanOff)
		}
	}
	return v
}

func (v *voiceSource) draw() int {
	n := 0
	for i := range v.on {
		if v.on[i] {
			n += int(v.rng.Poisson(v.pktTick))
		}
		if v.remain[i] -= v.tick; v.remain[i] <= 0 {
			v.on[i] = !v.on[i]
			if v.on[i] {
				v.remain[i] = v.rng.Exp(1 / voiceMeanOn)
			} else {
				v.remain[i] = v.rng.Exp(1 / voiceMeanOff)
			}
		}
	}
	return n
}

// sensorSource is the examples/sensornet shape: each sensor reports once
// per period, with phases spread uniformly so the aggregate is a smooth
// deterministic-ish stream (burstier than Poisson per sensor, smoother in
// aggregate).
type sensorSource struct {
	tick   float64
	period float64
	phase  []float64 // seconds until the sensor's next report
}

func newSensorSource(stations int, period, tick time.Duration, seed uint64) *sensorSource {
	s := &sensorSource{tick: tick.Seconds(), period: period.Seconds(), phase: make([]float64, stations)}
	rng := rngutil.New(seed)
	for i := range s.phase {
		s.phase[i] = rng.Float64() * s.period
	}
	return s
}

func (s *sensorSource) draw() int {
	n := 0
	for i := range s.phase {
		if s.phase[i] -= s.tick; s.phase[i] <= 0 {
			n++
			s.phase[i] += s.period
		}
	}
	return n
}
