package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"psgc"
	"psgc/internal/gate"
	"psgc/internal/service"
)

// backendCount is the number of psgc-served backends behind the gate.
const backendCount = 2

// fleet is an in-process gate over in-process backends, each serving HTTP
// on a loopback port.
type fleet struct {
	backends []*service.Server
	gate     *gate.Gate
	servers  []*http.Server
	serving  sync.WaitGroup
	url      string
}

// startFleet starts the backends, each with at most workers workers, and
// the gate in front of them. A non-nil hops times every request each
// layer handles.
func startFleet(workers int, hops *hopLog) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < backendCount; i++ {
		s := service.New(service.Config{Workers: workers})
		f.backends = append(f.backends, s)
		u, err := f.serve(hops.wrap(layerService, s))
		if err != nil {
			f.close()
			return nil, err
		}
		urls = append(urls, u)
	}
	g, err := gate.New(gate.Config{Backends: urls, Seed: 1})
	if err != nil {
		f.close()
		return nil, fmt.Errorf("start gate: %w", err)
	}
	f.gate = g
	if f.url, err = f.serve(hops.wrap(layerGate, g)); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen on loopback: %w", err)
	}
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the listeners front to back, then the gate's health loop and
// the backends' worker pools, and waits for all of them.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := len(f.servers) - 1; i >= 0; i-- {
		_ = f.servers[i].Shutdown(ctx) // a listener that fails to drain in time is dropped with the process
	}
	if f.gate != nil {
		f.gate.Close()
	}
	for _, s := range f.backends {
		_ = s.Shutdown(ctx)
	}
	f.serving.Wait()
}

// gateRetries reads the gate's retry counter from GET /metrics.
func (f *fleet) gateRetries(client *http.Client) (float64, error) {
	resp, err := client.Get(f.url + "/metrics?format=json")
	if err != nil {
		return 0, fmt.Errorf("gate metrics: %w", err)
	}
	defer resp.Body.Close()
	var m struct {
		Retries float64 `json:"retries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return 0, fmt.Errorf("gate metrics: %w", err)
	}
	return m.Retries, nil
}

// The layers the timing middleware wraps.
const (
	layerGate = iota
	layerService
	layerCount
)

// hopLog is the timing middleware's record: for each X-Trace-Id, when each
// layer's ServeHTTP started and ended. A nil *hopLog wraps nothing.
type hopLog struct {
	mu   sync.Mutex
	hops map[string]*[layerCount][2]time.Time
}

func newHopLog() *hopLog { return &hopLog{hops: map[string]*[layerCount][2]time.Time{}} }

func (l *hopLog) wrap(layer int, h http.Handler) http.Handler {
	if l == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		id := r.Header.Get("X-Trace-Id")
		if id == "" {
			return // the gate's health probes
		}
		l.mu.Lock()
		defer l.mu.Unlock()
		t := l.hops[id]
		if t == nil {
			t = new([layerCount][2]time.Time)
			l.hops[id] = t
		}
		t[layer] = [2]time.Time{start, end}
	})
}

// get returns the recorded spans of one request.
func (l *hopLog) get(id string) ([layerCount][2]time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	t, ok := l.hops[id]
	if !ok {
		return [layerCount][2]time.Time{}, false
	}
	return *t, true
}

// newClient is the load generator's HTTP client: at most conns
// connections to the gate.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
}

// outcome is one /run request as the client saw it.
type outcome struct {
	done time.Time // when the response was read in full
	err  error
	resp service.RunResponse
}

// post sends one /run request through the gate.
func post(client *http.Client, url string, p *program, traceID string) outcome {
	b, err := postRun(client, url, p, traceID)
	o := outcome{done: time.Now(), err: err}
	if err == nil {
		o.err = json.Unmarshal(b, &o.resp)
	}
	return o
}

// postRun returns the body of a 200 response; any other status is an
// error.
func postRun(client *http.Client, url string, p *program, traceID string) ([]byte, error) {
	capacity := p.Capacity
	body, err := json.Marshal(service.RunRequest{
		CompileRequest: service.CompileRequest{Source: p.Src, Collector: p.Col.String()},
		Capacity:       &capacity,
	})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, url+"/run", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Trace-Id", traceID)
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// seqRun is what the closed loop recorded: one outcome and the process
// CPU time of each request sent, in order.
type seqRun struct {
	outs []outcome
	cpu  []time.Duration
}

// closedServe sends the sequence one request at a time, each once the
// previous response has been read, until seconds have passed or the
// sequence ends. With one request in flight nothing queues, and client,
// gate and backends share the process, so the process's CPU time across
// a request is the work of its whole path: client, gate, backend, the
// compiled-program cache or the compiler, the run, and the Go runtime's
// collection of their garbage.
func closedServe(client *http.Client, url string, seq []request, seconds float64, runID string) *seqRun {
	sr := &seqRun{}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for k, q := range seq {
		if k > 0 && !time.Now().Before(deadline) {
			break
		}
		c0 := cpuTime(clockProcessCPU)
		o := post(client, url, q.Prog, fmt.Sprintf("%s-seq%d", runID, k))
		sr.cpu = append(sr.cpu, cpuTime(clockProcessCPU)-c0)
		sr.outs = append(sr.outs, o)
	}
	return sr
}

// loadRun is what one pass of the open loop recorded.
type loadRun struct {
	t0       time.Time
	outs     []outcome
	lagMax   time.Duration
	traceIDs []string
}

// openLoop sends each arrival when it is due, whether or not earlier
// requests have finished, over at most senders connections. Requests due
// while every sender is busy wait in the client's queue; their latency
// counts from when they were due.
func openLoop(client *http.Client, url string, arrivals []arrival, senders int, runID string) *loadRun {
	lr := &loadRun{outs: make([]outcome, len(arrivals)), traceIDs: make([]string, len(arrivals))}
	for k := range arrivals {
		lr.traceIDs[k] = fmt.Sprintf("%s-%d", runID, k)
	}
	// One slot per arrival, so the generator never waits on a sender.
	queue := make(chan int, len(arrivals))
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range queue {
				lr.outs[k] = post(client, url, arrivals[k].Prog, lr.traceIDs[k])
			}
		}()
	}
	lr.t0 = time.Now()
	for k, a := range arrivals {
		due := lr.t0.Add(a.Due)
		time.Sleep(time.Until(due))
		if lag := time.Since(due); lag > lr.lagMax {
			lr.lagMax = lag
		}
		queue <- k
	}
	close(queue)
	wg.Wait()
	return lr
}

// stepStats are one rate step's results.
type stepStats struct {
	hits, misses      []float64 // latency from due, ms, of successful requests
	attempted, failed int
	grows             bool
	throughput        float64 // successful requests per second
}

// meets reports whether the step satisfies every condition of a
// sustained rate.
func (s stepStats) meets() bool {
	return s.failed == 0 && !s.grows &&
		quantile(s.hits, 0.9) <= hitLimitMs && quantile(s.misses, 0.9) <= missLimitMs
}

// serveTally is the classified outcome of a serve-mix run.
type serveTally struct {
	steps             []stepStats
	hits, misses      []float64 // closed loop, process CPU ms
	attempted, failed int
	wrong             int
	firstErr          error
	okPerSecond       float64
}

// check counts one request and checks its value against the reference. It
// returns whether the request succeeded.
func (t *serveTally) check(traceID string, q request, o outcome) bool {
	t.attempted++
	err := o.err
	if err == nil && o.resp.Value != q.Prog.Want {
		t.wrong++
		err = fmt.Errorf("value %d, reference %d", o.resp.Value, q.Prog.Want)
	}
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = fmt.Errorf("request %s (%s/%s): %w", traceID, q.Prog.Name, q.Prog.Col, err)
		}
		return false
	}
	return true
}

// tally classifies every request of both loops by the response's cached
// field and checks every value against its reference.
func tally(sc *schedule, sr *seqRun, lr *loadRun) serveTally {
	t := serveTally{steps: make([]stepStats, len(rateSteps))}
	for k, o := range sr.outs {
		if !t.check(fmt.Sprintf("seq%d", k), sc.sequence[k], o) {
			continue
		}
		if o.resp.Cached {
			t.hits = append(t.hits, ms(sr.cpu[k]))
		} else {
			t.misses = append(t.misses, ms(sr.cpu[k]))
		}
	}
	firstDue := make([]time.Time, len(rateSteps))
	lastDue := make([]time.Time, len(rateSteps))
	lastDone := make([]time.Time, len(rateSteps))
	var end time.Time
	okOpen := 0
	for k, a := range sc.arrivals {
		o := lr.outs[k]
		s := &t.steps[a.Step]
		due := lr.t0.Add(a.Due)
		if firstDue[a.Step].IsZero() {
			firstDue[a.Step] = due
		}
		lastDue[a.Step] = due
		if o.done.After(lastDone[a.Step]) {
			lastDone[a.Step] = o.done
		}
		if o.done.After(end) {
			end = o.done
		}
		s.attempted++
		if !t.check(lr.traceIDs[k], a.request, o) {
			s.failed++
			continue
		}
		okOpen++
		lat := ms(o.done.Sub(due))
		if o.resp.Cached {
			s.hits = append(s.hits, lat)
		} else {
			s.misses = append(s.misses, lat)
		}
	}
	for i := range t.steps {
		s := &t.steps[i]
		s.throughput = float64(s.attempted-s.failed) / lastDone[i].Sub(firstDue[i]).Seconds()
		s.grows = lastDone[i].Sub(lastDue[i]) > drainLimit
	}
	t.okPerSecond = float64(okOpen) / end.Sub(lr.t0).Seconds()
	return t
}

// drainLimit is how soon after a step's last arrival its requests must
// all have completed. A backlog that grew through the step takes longer
// to drain than any single request may take.
const drainLimit = missLimitMs * time.Millisecond

// nominalStep is the index of the nominal rate in rateSteps.
const nominalStep = 1

// metrics reports the end-to-end metrics of a serve-mix run: CPU time per
// request from the closed loop, rates from the open loop.
func (t serveTally) metrics(out map[string]float64) {
	out["ops_per_s"] = t.okPerSecond
	out["op_cpu_ms.p50"] = quantile(t.hits, 0.5)
	out["op_cpu_ms.p90"] = quantile(t.hits, 0.9)
	out["miss_cpu_ms.p50"] = quantile(t.misses, 0.5)
	out["miss_cpu_ms.p90"] = quantile(t.misses, 0.9)
	out["max_rate_rps"] = 0
	for i := len(t.steps) - 1; i >= 0; i-- {
		if t.steps[i].meets() {
			out["max_rate_rps"] = t.steps[i].throughput
			break
		}
	}
}

// hopMetrics turns the middleware's record of the nominal step into spans
// and per-layer metrics: the service handler's time, its overhead beyond
// the run itself on cache hits, and the gate's hop beyond the backend.
func hopMetrics(arrivals []arrival, lr *loadRun, hops *hopLog, spans *spanLog, out map[string]float64) {
	var handler, overhead, hop []float64
	for k, a := range arrivals {
		o := lr.outs[k]
		id := lr.traceIDs[k]
		h, ok := hops.get(id)
		client := spans.add("client", id, 0, lr.t0.Add(a.Due), o.done)
		if !ok {
			continue
		}
		g := spans.add("gate", id, client, h[layerGate][0], h[layerGate][1])
		spans.add("service", id, g, h[layerService][0], h[layerService][1])
		if a.Step != nominalStep || o.err != nil {
			continue
		}
		svc := ms(h[layerService][1].Sub(h[layerService][0]))
		handler = append(handler, svc)
		hop = append(hop, ms(h[layerGate][1].Sub(h[layerGate][0]))-svc)
		if o.resp.Cached {
			overhead = append(overhead, svc-o.resp.RunMs)
		}
	}
	out["service.handler_ms.p50"] = quantile(handler, 0.5)
	out["service.overhead_ms.p50"] = quantile(overhead, 0.5)
	out["service.overhead_ms.p90"] = quantile(overhead, 0.9)
	out["gate.hop_ms.p50"] = quantile(hop, 0.5)
	out["gate.hop_ms.p90"] = quantile(hop, 0.9)
}

// sameStats fails unless the served run's statistics equal the Result of
// running the same program in-process.
func sameStats(served service.RunResponse, res psgc.Result) error {
	want := service.RunStats{Steps: res.Steps, Collections: res.Collections, Puts: res.Stats.Puts,
		RegionsReclaimed: res.Stats.RegionsReclaimed, CellsReclaimed: res.Stats.CellsReclaimed,
		MaxLiveCells: res.Stats.MaxLiveCells, LiveCells: res.LiveCells}
	if served.Stats != want || served.Value != res.Value {
		return fmt.Errorf("served run differs from Compiled.Run:\n  served    value %d %+v\n  in-process value %d %+v",
			served.Value, served.Stats, res.Value, want)
	}
	return nil
}
