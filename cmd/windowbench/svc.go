package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"windowctl/internal/rngutil"
	"windowctl/internal/wire"
)

// sample is one poll of the service's cumulative counters.
type sample struct {
	t        float64 // seconds since the run's epoch, at the poll's midpoint
	scrape   float64 // seconds the poll took
	tx, shed int64
	late     int64
	arrivals int64 // materialized into the engine
	ingested int64 // booked into the owed ledger
	frames   int64
	owed     int64
	backlog  int64
	steps    int64
	idle     int64
	success  int64
	coll     int64
	splits   int64
	virtual  float64
	consOK   bool
}

func (s sample) decided() int64 { return s.tx + s.shed }
func (s sample) lost() int64    { return s.shed + s.late }

// poller samples the service at 20 Hz on one goroutine and publishes the
// latest decided count for the closed-loop generator.
type poller struct {
	read    func() (sample, error)
	epoch   time.Time
	decided atomic.Int64
	stop    chan struct{}
	done    chan struct{}

	mu      sync.Mutex
	samples []sample
	err     error
}

const pollEvery = 50 * time.Millisecond

func startPoller(epoch time.Time, read func() (sample, error)) *poller {
	p := &poller{read: read, epoch: epoch, stop: make(chan struct{}), done: make(chan struct{})}
	go p.run()
	return p
}

func (p *poller) run() {
	defer close(p.done)
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	for {
		p.once()
		select {
		case <-p.stop:
			p.once()
			return
		case <-tick.C:
		}
	}
}

func (p *poller) once() {
	t0 := time.Now()
	s, err := p.read()
	t1 := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		if p.err == nil {
			p.err = err
		}
		return
	}
	s.t = (t0.Sub(p.epoch) + t1.Sub(t0)/2).Seconds()
	s.scrape = t1.Sub(t0).Seconds()
	p.samples = append(p.samples, s)
	p.decided.Store(s.decided())
}

// finish takes a last sample, stops the goroutine and returns every
// sample taken.
func (p *poller) finish() ([]sample, error) {
	close(p.stop)
	<-p.done
	return p.samples, p.err
}

// admit is the closed loop's cap: of n messages due, it lets through
// only as many as keep sent − decided at or below limit.
func admit(sent, decided, n, limit int64) int64 {
	room := limit - (sent - decided)
	if room <= 0 {
		return 0
	}
	if n > room {
		return room
	}
	return n
}

// generator is the load: one goroutine drawing a Poisson count per tick
// and shipping it as one counts frame over one wire.Client.
type generator struct {
	cl    *wire.Client
	rng   *rngutil.Stream
	rate  float64 // offered msgs/s
	tick  time.Duration
	limit int64 // closed loop: cap on sent − decided (0: open loop)
	ln    *lane

	sent   polledCurve // cumulative messages at each tick's due time
	lag    []float64   // seconds each tick was sent after it was due
	frames int64
	msgs   int64
	err    error
}

// run generates until stop is closed.  Tick k is due at epoch + k·tick
// and the sent curve takes the tick's batch at its due time, so a stall
// in the generator or the socket shows up as latency rather than
// vanishing.
func (g *generator) run(epoch time.Time, stop <-chan struct{}, decided *atomic.Int64) {
	g.sent.add(0, 0)
	counts := make([]uint32, 1)
	mean := g.rate * g.tick.Seconds()
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for k := int64(1); ; k++ {
		due := epoch.Add(time.Duration(k) * g.tick)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-stop:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		t0 := time.Now()
		g.lag = append(g.lag, t0.Sub(due).Seconds())
		n := int64(g.rng.Poisson(mean))
		if g.limit > 0 {
			n = admit(g.msgs, decided.Load(), n, g.limit)
		}
		t1 := time.Now()
		g.ln.add(lLoad, t1.Sub(t0))
		if n > 0 {
			counts[0] = uint32(n)
			err := g.cl.Send(counts)
			if err == nil {
				err = g.cl.Flush()
			}
			t2 := time.Now()
			g.ln.add(lWire, t2.Sub(t1))
			g.ln.span("wire.send", t1, t2, 0, uint64(k))
			if err != nil {
				g.err = err
				return
			}
			g.frames++
			g.msgs += n
		}
		// A point every tick, empty ones included, so interpolation never
		// spreads a batch back over a pause in the closed loop.
		g.sent.add(due.Sub(epoch).Seconds(), g.msgs)
	}
}

// windowd is one running windowd process.
type windowd struct {
	cmd      *exec.Cmd
	httpAddr string
	tcpAddr  string
	stdout   lockedBuffer
	stderr   *readyWriter
	exited   chan struct{}
	waitErr  error
}

// lockedBuffer collects a child's output; exec copies into it from its
// own goroutine.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// readyWriter scans windowd's stderr for the two listener announcements.
// exec calls Write from one goroutine; http and tcp are read only after
// ready is closed, and not written after that.
type readyWriter struct {
	lockedBuffer
	http, tcp string
	ready     chan struct{}
}

func (r *readyWriter) Write(p []byte) (int, error) {
	n, err := r.lockedBuffer.Write(p)
	if r.http != "" && r.tcp != "" {
		return n, err
	}
	sc := bufio.NewScanner(strings.NewReader(r.lockedBuffer.String()))
	for sc.Scan() {
		line := sc.Text()
		if a, ok := strings.CutPrefix(line, "windowd: listening on "); ok {
			r.http, _, _ = strings.Cut(a, " ")
		}
		if a, ok := strings.CutPrefix(line, "windowd: tcp ingest on "); ok {
			r.tcp = strings.TrimSpace(a)
		}
	}
	if r.http != "" && r.tcp != "" {
		close(r.ready)
	}
	return n, err
}

// startWindowd execs windowd on ephemeral loopback ports and waits until
// both listeners are announced.  The child is killed if this process
// dies, so an interrupted benchmark leaves no service running.
func startWindowd(bin string, args []string) (*windowd, time.Duration, error) {
	all := append([]string{"-listen", "127.0.0.1:0", "-listen-tcp", "127.0.0.1:0"}, args...)
	w := &windowd{
		cmd:    exec.Command(bin, all...),
		stderr: &readyWriter{ready: make(chan struct{})},
		exited: make(chan struct{}),
	}
	w.cmd.Stdout = &w.stdout
	w.cmd.Stderr = w.stderr
	w.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := w.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting windowd: %w", err)
	}
	go func() {
		w.waitErr = w.cmd.Wait()
		close(w.exited)
	}()
	select {
	case <-w.stderr.ready:
	case <-w.exited:
		return nil, 0, fmt.Errorf("windowd exited before listening: %v\n%s", w.waitErr, w.stderr.String())
	case <-time.After(10 * time.Second):
		w.kill()
		return nil, 0, fmt.Errorf("windowd not ready after 10s")
	}
	w.httpAddr, w.tcpAddr = w.stderr.http, w.stderr.tcp
	// windowd announces its listeners before it installs its SIGTERM
	// handler; a SIGTERM in between kills it undrained.  It is ready once
	// it answers /healthz, which it serves only after the handler is in.
	resp, err := http.Get("http://" + w.httpAddr + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/healthz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		w.kill()
		return nil, 0, fmt.Errorf("windowd not healthy: %w", err)
	}
	return w, time.Since(t0), nil
}

func (w *windowd) kill() {
	w.cmd.Process.Kill()
	<-w.exited
}

// stop sends SIGTERM and waits for the drain; it returns the exit error
// and windowd's stdout.  A windowd that does not exit within the timeout
// is killed and reported.
func (w *windowd) stop(timeout time.Duration) (string, error) {
	if err := w.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		w.kill()
		return w.stdout.String(), fmt.Errorf("signalling windowd: %w", err)
	}
	select {
	case <-w.exited:
	case <-time.After(timeout):
		w.kill()
		return w.stdout.String(), fmt.Errorf("windowd did not exit within %v of SIGTERM", timeout)
	}
	if w.waitErr != nil {
		return w.stdout.String(), fmt.Errorf("windowd exit: %v\n%s", w.waitErr, w.stderr.String())
	}
	return w.stdout.String(), nil
}

// procStat reads a process's CPU seconds (user + system) and its peak
// resident set in MB from /proc.
func procStat(pid int) (cpu float64, hwmMB float64, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	cpu = (ut + st) / clockTicks
	st2, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return cpu, 0, err
	}
	for _, line := range strings.Split(string(st2), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			hwmMB = kb / 1024
		}
	}
	return cpu, hwmMB, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// metricsReader polls windowd's Prometheus exposition over one
// keep-alive connection.
func metricsReader(addr string) (func() (sample, error), *http.Client) {
	client := &http.Client{
		Timeout:   5 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
	url := "http://" + addr + "/metrics"
	return func() (sample, error) {
		resp, err := client.Get(url)
		if err != nil {
			return sample{}, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return sample{}, fmt.Errorf("/metrics: status %d", resp.StatusCode)
		}
		return parseMetrics(resp.Body)
	}, client
}

// parseMetrics reads the unlabelled series of windowd's /metrics.
func parseMetrics(r io.Reader) (sample, error) {
	var s sample
	sc := bufio.NewScanner(r)
	seen := 0
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.ContainsRune(name, '{') {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		var dst *int64
		switch name {
		case "windowd_transmissions_total":
			dst = &s.tx
		case "windowd_shed_total":
			dst = &s.shed
		case "windowd_late_total":
			dst = &s.late
		case "windowd_arrivals_total":
			dst = &s.arrivals
		case "windowd_ingested_total":
			dst = &s.ingested
		case "windowd_ingest_frames_total":
			dst = &s.frames
		case "windowd_owed_arrivals":
			dst = &s.owed
		case "windowd_backlog":
			dst = &s.backlog
		case "windowd_steps_total":
			dst = &s.steps
		case "windowd_idle_slots_total":
			dst = &s.idle
		case "windowd_success_slots_total":
			dst = &s.success
		case "windowd_collision_slots_total":
			dst = &s.coll
		case "windowd_splits_total":
			dst = &s.splits
		case "windowd_virtual_now":
			s.virtual = v
			seen++
		case "windowd_conservation_ok":
			s.consOK = v == 1
			seen++
		}
		if dst != nil {
			*dst = int64(v)
			seen++
		}
	}
	if err := sc.Err(); err != nil {
		return s, err
	}
	if seen != metricsSeries {
		return s, fmt.Errorf("/metrics: found %d of %d expected series", seen, metricsSeries)
	}
	return s, nil
}

// metricsSeries is how many series parseMetrics reads.
const metricsSeries = 15

// ingestTotal reads windowd_ingest.total from /debug/vars.
func ingestTotal(client *http.Client, addr string) (int64, error) {
	resp, err := client.Get("http://" + addr + "/debug/vars")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var v struct {
		Ingest struct {
			Total int64 `json:"total"`
		} `json:"windowd_ingest"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return 0, fmt.Errorf("/debug/vars: %w", err)
	}
	return v.Ingest.Total, nil
}
