package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/caesar-sketch/caesar"
)

// The service probe of a traced run drives the real caesar-serve binary
// over loopback with the workload's own flows. Its mixed phase is an open
// loop: requests are due on a fixed schedule whether or not earlier ones
// have finished, and each is timed from its due time. After it, one
// closed-loop burst is read back and scored against its exact counts.
const (
	serveEpochs   = 4 // caesar-serve's default window
	mixedDuration = 8 * time.Second
	observeRate   = 100.0 // /observe requests per second (25,600 flows/s, well below saturation)
	estimateRate  = 100.0 // /estimate requests per second, 16 flows each
	topkRate      = 30.0  // /topk?k=100 requests per second
	rotatePeriod  = 500 * time.Millisecond
	// Before the mixed phase the probe posts bodies until the service has
	// seen warmCandidates distinct flows; the mixed phase then cycles over
	// those bodies. The candidate set starts at its steady size, so /topk
	// costs the same from the first request to the last, and on every seed.
	warmCandidates = 2_500
	sweepFlows     = 1024 // flows per /estimate request in the sweep
	lateLimit      = time.Millisecond
	// maxLateP99 marks a mixed phase invalid: beyond it the generator, not
	// the program, set the schedule. An invalid phase is discarded and run
	// again, up to mixedAttempts times in all.
	maxLateP99    = 10 * time.Millisecond
	mixedAttempts = 3
)

// Request kinds of the mixed phase.
const (
	kObserve = iota
	kEstimate
	kTopK
	kRotate
	nKinds
)

var kindName = [nKinds]string{"observe", "estimate", "topk", "rotate"}

// event is one scheduled request and what happened to it.
type event struct {
	kind       int
	arg        int // body index (observe) or URL index (estimate)
	due        time.Time
	dispatched time.Time // when the generator handed it to a connection
	sent, end  time.Time
	err        error
}

// serveRun is one service probe.
type serveRun struct {
	in *serveInputs
	// areBound is the largest elephant_are the burst check accepts.
	areBound float64
	clients  int
	http     *http.Client
	srv      *serverProc
	estURLs  []string
	warm     int // bodies that carry the first warmCandidates distinct flows

	presented atomic.Uint64 // flows carried by every /observe attempted

	events       []event // the valid mixed phase
	discarded    int     // mixed phases discarded because the generator fell behind
	are          float64 // the burst's elephant_are
	shedRequests uint64
	rotations    int
}

func newServeRun(in *serveInputs, areBound float64) *serveRun {
	clients := runtime.NumCPU()
	s := &serveRun{
		in:       in,
		areBound: areBound,
		clients:  clients,
		http: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true},
			Timeout:   30 * time.Second,
		},
	}
	seen := map[caesar.FlowID]bool{}
	for s.warm < len(in.flows) && len(seen) < warmCandidates {
		for _, f := range in.flows[s.warm] {
			seen[f] = true
		}
		s.warm++
	}
	return s
}

// close stops the server, if one is running, and drops idle connections.
func (s *serveRun) close() {
	s.http.CloseIdleConnections()
	if s.srv != nil {
		_ = s.srv.stop() // shutdown errors after the run has been measured change nothing
		s.srv = nil
	}
}

// probe starts caesar-serve with the sketch budget sk, fills the candidate
// set, runs the mixed phase and the burst, and checks the ledger.
func (s *serveRun) probe(bin, dir string, sk caesar.Config) error {
	p, err := startServer(bin, dir, sk)
	if err != nil {
		return err
	}
	s.srv = p
	if err := s.closedLoop(s.warm, func(i int) error { return s.observe(s.in, i) }); err != nil {
		return err
	}
	for attempt := 1; ; attempt++ {
		err := s.mixedPhase(mixedDuration)
		if err == nil {
			break
		}
		var le *lateError
		if !errors.As(err, &le) || attempt == mixedAttempts {
			return err
		}
		fmt.Fprintf(os.Stderr, "e2ebench: %v; mixed phase discarded\n", err)
		s.discarded++
	}
	if err := s.burstAndSweep(); err != nil {
		return err
	}
	return s.checkLedger()
}

// latency is a request's latency in ms, from due time to response.
func (e *event) latency() float64 { return ms(e.end.Sub(e.due)) }

// latencies returns each kind's latencies over the whole mixed phase.
func (s *serveRun) latencies() [nKinds][]float64 {
	var out [nKinds][]float64
	for i := range s.events {
		out[s.events[i].kind] = append(out[s.events[i].kind], s.events[i].latency())
	}
	return out
}

// schedule lays out the mixed phase's open-loop requests, sorted by due
// time. Each /estimate asks for 16 flows of a body already due.
func (s *serveRun) schedule(start time.Time, d time.Duration) {
	s.events = s.events[:0]
	add := func(kind int, rate float64) {
		n := int(d.Seconds() * rate)
		for i := 0; i < n; i++ {
			due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
			s.events = append(s.events, event{kind: kind, arg: i, due: due})
		}
	}
	add(kObserve, observeRate)
	add(kEstimate, estimateRate)
	add(kTopK, topkRate)
	add(kRotate, 1/rotatePeriod.Seconds())
	// Rotations start one period in, not at t=0.
	for i := range s.events {
		if s.events[i].kind == kRotate {
			s.events[i].due = s.events[i].due.Add(rotatePeriod)
		}
	}
	sort.SliceStable(s.events, func(a, b int) bool { return s.events[a].due.Before(s.events[b].due) })
	nEst := int(d.Seconds() * estimateRate)
	s.estURLs = make([]string, nEst)
	for j := range s.estURLs {
		b := int(float64(j)*observeRate/estimateRate) % s.warm
		s.estURLs[j] = estimateURL(s.srv.base, s.in.flows[b][:estimateFlows])
	}
}

func estimateURL(base string, flows []caesar.FlowID) string {
	var b strings.Builder
	b.WriteString(base)
	b.WriteString("/estimate?")
	for i, f := range flows {
		if i > 0 {
			b.WriteByte('&')
		}
		b.WriteString("flow=")
		b.WriteString(strconv.FormatUint(uint64(f), 10))
	}
	return b.String()
}

// lateError marks a mixed phase whose generator fell behind its schedule.
type lateError struct{ p99 float64 }

func (e *lateError) Error() string {
	return fmt.Sprintf("invalid mixed phase: generator late p99 %.3f ms exceeds %v; it could not keep its schedule", e.p99, maxLateP99)
}

// mixedPhase runs the open loop: one generator hands due requests to
// s.clients connections. Every request must succeed.
func (s *serveRun) mixedPhase(d time.Duration) error {
	start := time.Now().Add(50 * time.Millisecond)
	s.schedule(start, d)
	jobs := make(chan int, len(s.events)) // sized to the number of sends: the generator never blocks
	var wg sync.WaitGroup
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				e := &s.events[i]
				e.sent = time.Now()
				e.err = s.do(e)
				e.end = time.Now()
			}
		}()
	}
	for i := range s.events {
		waitUntil(s.events[i].due)
		s.events[i].dispatched = time.Now()
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for i := range s.events {
		if err := s.events[i].err; err != nil {
			return fmt.Errorf("%s request failed: %w", kindName[s.events[i].kind], err)
		}
	}

	late, behind := s.lateness()
	p99, err := percentile(late, 99)
	if err != nil {
		return err
	}
	lat := s.latencies()
	fmt.Fprintf(os.Stderr, "e2ebench: mixed phase: %d requests, generator late p99 %.3f ms, %d sends behind schedule by > %v\n",
		len(s.events), p99, behind, lateLimit)
	for k := 0; k < nKinds; k++ {
		fmt.Fprintf(os.Stderr, "e2ebench:   %-8s n=%-5d", kindName[k], len(lat[k]))
		for _, p := range []float64{50, 90, 99} {
			if v, err := percentile(lat[k], p); err == nil {
				fmt.Fprintf(os.Stderr, " p%g %.3f", p, v)
			}
		}
		fmt.Fprintf(os.Stderr, " max %.3f ms\n", lat[k][len(lat[k])-1])
	}
	if p99 > ms(maxLateP99) {
		return &lateError{p99}
	}
	return nil
}

// waitUntil sleeps until shortly before t and yields the rest of the way:
// a plain Sleep overshoots by about half a millisecond on a busy 2-CPU
// machine, which would be charged to every request's latency.
func waitUntil(t time.Time) {
	if w := time.Until(t) - spinWindow; w > 0 {
		time.Sleep(w)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

const spinWindow = 300 * time.Microsecond

// lateness returns how late the generator dispatched each request (ms),
// and how many sends fell behind schedule by more than lateLimit.
func (s *serveRun) lateness() ([]float64, int) {
	late := make([]float64, len(s.events))
	behind := 0
	for i, e := range s.events {
		late[i] = ms(e.dispatched.Sub(e.due))
		if e.dispatched.Sub(e.due) > lateLimit {
			behind++
		}
	}
	return late, behind
}

// do issues one mixed-phase request and checks its response.
func (s *serveRun) do(e *event) error {
	switch e.kind {
	case kObserve:
		return s.observe(s.in, e.arg%s.warm)
	case kEstimate:
		_, err := s.estimate(s.estURLs[e.arg], estimateFlows)
		return err
	case kTopK:
		return s.topk()
	case kRotate:
		return s.rotate()
	}
	return fmt.Errorf("unknown request kind %d", e.kind)
}

// call performs one request and decodes a 200 response into v. Non-2xx
// answers and transport errors are errors; a 200 that does not decode is a
// correctness violation.
func (s *serveRun) call(method, u string, body []byte, v any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		return err
	}
	resp, err := s.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body) // diagnostic only
		return fmt.Errorf("%s %s: %s: %s", method, u, resp.Status, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return gateErr("%s %s: malformed response: %v", method, u, err)
	}
	return nil
}

func (s *serveRun) observe(in *serveInputs, b int) error {
	s.presented.Add(uint64(len(in.flows[b])))
	var resp struct {
		Observed *int `json:"observed"`
	}
	if err := s.call("POST", s.srv.base+"/observe", in.bodies[b], &resp); err != nil {
		return err
	}
	if resp.Observed == nil || *resp.Observed != len(in.flows[b]) {
		return gateErr("/observe acknowledged %v of %d flows", resp.Observed, len(in.flows[b]))
	}
	return nil
}

type estimateAnswer struct {
	Flow     caesar.FlowID `json:"flow"`
	Estimate *float64      `json:"estimate"`
}

// estimate issues one /estimate and checks that it answers every flow
// asked, in order.
func (s *serveRun) estimate(u string, want int) ([]estimateAnswer, error) {
	var resp []estimateAnswer
	if err := s.call("GET", u, nil, &resp); err != nil {
		return nil, err
	}
	q, err := url.Parse(u)
	if err != nil {
		return nil, err
	}
	asked := q.Query()["flow"]
	if len(resp) != want || len(asked) != want {
		return nil, gateErr("/estimate answered %d flows, asked %d", len(resp), len(asked))
	}
	for i, a := range resp {
		if strconv.FormatUint(uint64(a.Flow), 10) != asked[i] || a.Estimate == nil || math.IsNaN(*a.Estimate) {
			return nil, gateErr("/estimate answer %d malformed: %+v for flow %s", i, a, asked[i])
		}
	}
	return resp, nil
}

func (s *serveRun) topk() error {
	var resp []estimateAnswer
	if err := s.call("GET", s.srv.base+"/topk?k="+strconv.Itoa(topkK), nil, &resp); err != nil {
		return err
	}
	if len(resp) > topkK {
		return gateErr("/topk returned %d flows for k=%d", len(resp), topkK)
	}
	for i, a := range resp {
		if a.Estimate == nil || i > 0 && *a.Estimate > *resp[i-1].Estimate {
			return gateErr("/topk answer malformed or not descending at rank %d", i)
		}
	}
	return nil
}

func (s *serveRun) rotate() error {
	var resp struct {
		Rotations *int `json:"rotations"`
	}
	if err := s.call("POST", s.srv.base+"/rotate", nil, &resp); err != nil {
		return err
	}
	if resp.Rotations == nil || *resp.Rotations < 1 {
		return gateErr("/rotate answered %v rotations", resp.Rotations)
	}
	return nil
}

// closedLoop runs n requests over s.clients connections back to back.
func (s *serveRun) closedLoop(n int, do func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, s.clients)
	var wg sync.WaitGroup
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := do(i); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// burstAndSweep empties the window, posts the burst bodies back to back,
// seals, and reads every flow of the burst back, scoring the estimates
// against the burst's exact counts.
func (s *serveRun) burstAndSweep() error {
	for i := 0; i < serveEpochs; i++ { // age every earlier epoch out of the window
		if err := s.rotate(); err != nil {
			return err
		}
	}
	burst := s.in.burst
	if err := s.closedLoop(len(burst.bodies), func(i int) error { return s.observe(burst, i) }); err != nil {
		return err
	}
	if err := s.rotate(); err != nil {
		return err
	}

	truth := map[caesar.FlowID]int{}
	for _, fl := range burst.flows {
		for _, f := range fl {
			truth[f]++
		}
	}
	flows := make([]caesar.FlowID, 0, len(truth))
	for f := range truth {
		flows = append(flows, f)
	}
	sort.Slice(flows, func(a, b int) bool { return flows[a] < flows[b] })
	est := make([]float64, len(flows))
	reqs := (len(flows) + sweepFlows - 1) / sweepFlows
	err := s.closedLoop(reqs, func(i int) error {
		lo, hi := i*sweepFlows, min((i+1)*sweepFlows, len(flows))
		ans, err := s.estimate(estimateURL(s.srv.base, flows[lo:hi]), hi-lo)
		for j, a := range ans {
			est[lo+j] = *a.Estimate
		}
		return err
	})
	if err != nil {
		return err
	}

	ft := flowTable{sizes: make([]int, len(flows))}
	for i, f := range flows {
		ft.sizes[i] = truth[f]
	}
	top := ft.largest(areFlows)
	s.are, err = checkOutputs(est, ft.sizes, top, s.areBound)
	return err
}

// checkLedger reads /drops and /healthz and enforces presented == packets
// + drops + shed over everything the probe posted.
func (s *serveRun) checkLedger() error {
	var drops struct {
		DroppedPackets  *uint64 `json:"dropped_packets"`
		ShedPackets     *uint64 `json:"shed_packets"`
		ShedRequests    *uint64 `json:"shed_requests"`
		IngestedPackets *uint64 `json:"ingested_packets"`
	}
	if err := s.call("GET", s.srv.base+"/drops", nil, &drops); err != nil {
		return err
	}
	var hz struct {
		NumPackets *uint64 `json:"num_packets"`
		Rotations  *int    `json:"rotations"`
	}
	if err := s.call("GET", s.srv.base+"/healthz", nil, &hz); err != nil {
		return err
	}
	if drops.DroppedPackets == nil || drops.ShedPackets == nil || drops.IngestedPackets == nil || drops.ShedRequests == nil || hz.NumPackets == nil || hz.Rotations == nil {
		return gateErr("/drops or /healthz is missing ledger fields")
	}
	presented := s.presented.Load()
	if err := ledgerCheck(presented, *hz.NumPackets, *drops.DroppedPackets, *drops.ShedPackets); err != nil {
		return err
	}
	if *drops.IngestedPackets+*drops.ShedPackets != presented {
		return gateErr("ledger: ingested %d + shed %d != presented %d", *drops.IngestedPackets, *drops.ShedPackets, presented)
	}
	s.shedRequests, s.rotations = *drops.ShedRequests, *hz.Rotations
	return nil
}

// serverProc is one running caesar-serve.
type serverProc struct {
	cmd    *exec.Cmd
	base   string
	copied chan struct{} // closed once the stdout drain has seen EOF
}

// startServer launches caesar-serve on a free loopback port with a fresh
// snapshot directory and returns once /healthz answers 200.
func startServer(bin, dir string, sk caesar.Config) (*serverProc, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "server.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin,
		"-listen", "127.0.0.1:0",
		"-snapshot", filepath.Join(dir, "state.csnp"),
		"-epochs", strconv.Itoa(serveEpochs),
		"-counters", strconv.Itoa(sk.Counters),
		"-cache-entries", strconv.Itoa(sk.CacheEntries),
		"-cache-cap", strconv.FormatUint(sk.CacheCapacity, 10),
		"-seed", strconv.FormatUint(sk.Seed, 10))
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd, copied: make(chan struct{})}
	br := bufio.NewReader(stdout)
	line, err := br.ReadString('\n')
	go func() {
		_, _ = io.Copy(io.Discard, br) // keep the pipe drained until the child exits
		close(p.copied)
	}()
	const prefix = "caesar-serve: listening on "
	if err != nil || !strings.HasPrefix(line, prefix) {
		p.stop()
		return nil, fmt.Errorf("caesar-serve did not report its address (%q, %v); see %s", line, err, logf.Name())
	}
	p.base = strings.TrimSpace(strings.TrimPrefix(line, prefix))
	client := &http.Client{Timeout: time.Second}
	for deadline := t0.Add(30 * time.Second); time.Now().Before(deadline); {
		resp, err := client.Get(p.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return p, nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	p.stop()
	return nil, fmt.Errorf("caesar-serve at %s never answered /healthz", p.base)
}

// stop asks the server to shut down (SIGTERM: drain, seal, checkpoint),
// kills it if it has not exited in time, and waits for it.
func (p *serverProc) stop() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.copied:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.copied
	}
	err := p.cmd.Wait()
	// caesar-serve installs its SIGTERM handler only after it starts
	// serving, so a SIGTERM right after the first /healthz can still take
	// the default action. Either way the process asked to stop has stopped.
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return nil
		}
	}
	if err != nil {
		return fmt.Errorf("caesar-serve exit: %w", err)
	}
	return nil
}
