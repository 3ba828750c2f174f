package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"psgc"
	"psgc/internal/obs"
	"psgc/internal/workload"
)

var allocHeavy = workload.AllocHeavySrc(30)

// postJSON drives one endpoint of a real httptest server.
func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func decode[T any](t *testing.T, data []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("bad response %s: %v", data, err)
	}
	return v
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

// TestCompileRunInterpretRoundTrip drives compile, a cache-hit recompile,
// run (agreeing with /interpret), and a cache-hit rerun through a real
// HTTP server.
func TestCompileRunInterpretRoundTrip(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	resp, body := postJSON(t, ts.URL+"/compile", CompileRequest{Source: allocHeavy, Collector: "forwarding"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: status %d: %s", resp.StatusCode, body)
	}
	cr := decode[CompileResponse](t, body)
	if cr.Cached || cr.CodeBlocks == 0 || cr.SourceHash == "" {
		t.Fatalf("first compile response: %+v", cr)
	}

	resp, body = postJSON(t, ts.URL+"/compile", CompileRequest{Source: allocHeavy, Collector: "forwarding"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recompile: status %d: %s", resp.StatusCode, body)
	}
	if cr2 := decode[CompileResponse](t, body); !cr2.Cached {
		t.Fatalf("second compile of identical source not served from cache: %+v", cr2)
	}

	resp, body = postJSON(t, ts.URL+"/interpret", CompileRequest{Source: allocHeavy})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("interpret: status %d: %s", resp.StatusCode, body)
	}
	want := decode[InterpretResponse](t, body).Value

	cap := 40
	resp, body = postJSON(t, ts.URL+"/run", RunRequest{
		CompileRequest: CompileRequest{Source: allocHeavy, Collector: "forwarding"},
		Capacity:       &cap,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d: %s", resp.StatusCode, body)
	}
	rr := decode[RunResponse](t, body)
	if rr.Value != want {
		t.Fatalf("run value %d, interpreter says %d", rr.Value, want)
	}
	if !rr.Cached {
		t.Errorf("run after compile should hit the compiled-program cache")
	}
	if rr.Stats.Collections == 0 {
		t.Errorf("capacity 40 should force collections, got %+v", rr.Stats)
	}

	if hits := s.metrics.CacheHits.Load(); hits < 2 {
		t.Errorf("cache hits = %d, want >= 2", hits)
	}
}

// TestQueueFull429 fills the one-worker, one-slot queue with blocking jobs
// and asserts the next request is shed with 429 and Retry-After.
func TestQueueFull429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	block := make(chan struct{})
	started := make(chan struct{})
	occupy := func(signal chan struct{}) *job {
		return &job{do: func() *response {
			if signal != nil {
				close(signal)
			}
			<-block
			return &response{status: http.StatusOK, body: struct{}{}}
		}, done: make(chan *response, 1)}
	}
	// One job running, one waiting: the queue is now full.
	s.metrics.EnterQueue()
	s.jobs <- occupy(started)
	<-started
	s.metrics.EnterQueue()
	s.jobs <- occupy(nil)

	resp, body := postJSON(t, ts.URL+"/interpret", CompileRequest{Source: "1 + 2"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", resp.StatusCode, body)
	}
	retryAfter(t, resp) // parseable, positive

	if got := s.metrics.Rejected.Load(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
	close(block)

	// With the pool drained the same request succeeds.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ = postJSON(t, ts.URL+"/interpret", CompileRequest{Source: "1 + 2"})
		if resp.StatusCode == http.StatusOK || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("queue never drained: status %d", resp.StatusCode)
	}
}

// TestDeadlineExceededRun maps a tiny deadline onto a tiny fuel budget and
// asserts the 504 carries the partial execution's diagnostics.
func TestDeadlineExceededRun(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, StepsPerMilli: 10})

	resp, body := postJSON(t, ts.URL+"/run", RunRequest{
		CompileRequest: CompileRequest{Source: allocHeavy},
		DeadlineMs:     1, // 10 steps of budget: nowhere near enough
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
	eb := decode[errorBody](t, body)
	if eb.Partial == nil {
		t.Fatalf("deadline response has no partial diagnostics: %s", body)
	}
	if eb.Partial.Steps != 10 {
		t.Errorf("partial steps = %d, want the 10-step budget", eb.Partial.Steps)
	}
	if got := s.metrics.Deadlines.Load(); got != 1 {
		t.Errorf("deadline counter = %d, want 1", got)
	}
}

// TestWorkerPanicBecomes500 injects a panicking job and asserts the pool
// survives and the response is a structured 500.
func TestWorkerPanicBecomes500(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	j := &job{do: func() *response { panic("boom") }, done: make(chan *response, 1)}
	s.metrics.EnterQueue()
	s.jobs <- j
	resp := <-j.done
	if resp.status != http.StatusInternalServerError {
		t.Fatalf("panic job status %d, want 500", resp.status)
	}
	eb, ok := resp.body.(errorBody)
	if !ok || !eb.Panic {
		t.Fatalf("panic job body %+v, want structured panic error", resp.body)
	}
	if got := s.metrics.Panics.Load(); got != 1 {
		t.Errorf("panic counter = %d, want 1", got)
	}

	// The worker survived the panic and still serves requests.
	httpResp, body := postJSON(t, ts.URL+"/interpret", CompileRequest{Source: "2 * 21"})
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("pool dead after panic: status %d (%s)", httpResp.StatusCode, body)
	}
	if v := decode[InterpretResponse](t, body).Value; v != 42 {
		t.Fatalf("interpret after panic = %d, want 42", v)
	}
}

// TestBadRequests exercises the 400/405 paths.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	resp, _ := postJSON(t, ts.URL+"/compile", CompileRequest{Source: "1", Collector: "marksweep"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown collector: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/compile", CompileRequest{Source: "fun f (x : int) : int = y\ndo 1"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("ill-typed program: status %d, want 400", resp.StatusCode)
	}
	getResp, err := http.Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /run: status %d, want 405", getResp.StatusCode)
	}
}

// TestBackendSelection checks that a request still naming a memory
// backend or an engine, in the body or in the query, is refused with a 400
// giving the reason, never silently served on the one store or machine.
func TestBackendSelection(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	for _, tc := range []struct{ path, body, want string }{
		{"/run", `{"source": "1", "backend": "arena"}`, "backend selection was removed"},
		{"/run?backend=map", `{"source": "1"}`, "backend selection was removed"},
		{"/batch", `{"items": [{"source": "1", "backend": "map"}]}`, "backend selection was removed"},
		{"/resume?backend=map", `{"blob": "AAAA"}`, "backend selection was removed"},
		{"/run", `{"source": "1", "engine": "subst"}`, "engine selection was removed"},
		{"/run?engine=subst", `{"source": "1"}`, "engine selection was removed"},
		{"/batch", `{"items": [{"source": "1", "engine": "subst"}]}`, "engine selection was removed"},
		{"/resume?engine=subst", `{"blob": "AAAA"}`, "engine selection was removed"},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), tc.want) {
			t.Errorf("%s %s: status %d body %s, want 400 naming the removal", tc.path, tc.body, resp.StatusCode, body)
		}
	}
}

// TestHealthzAndMetrics asserts both observability endpoints render and
// that the verified-collector typecheck counter is visible and stays at
// one over many compiles.
func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	for i := 0; i < 3; i++ {
		src := fmt.Sprintf("%d + %d", i, i)
		if resp, body := postJSON(t, ts.URL+"/run", RunRequest{
			CompileRequest: CompileRequest{Source: src, Collector: "basic"},
		}); resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d (%s)", i, resp.StatusCode, body)
		}
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Errorf("healthz status = %v", health["status"])
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	checks := metrics["collector_typechecks"].(map[string]any)
	if n := checks["basic"].(float64); n != 1 {
		t.Errorf("metrics report %v basic-collector typechecks, want exactly 1 per process", n)
	}
	reqs := metrics["requests"].(map[string]any)
	if n := reqs["run"].(float64); n != 3 {
		t.Errorf("metrics report %v run requests, want 3", n)
	}
	lat := metrics["run_latency_ms"].(map[string]any)
	if n := lat["count"].(float64); n != 3 {
		t.Errorf("run latency histogram count %v, want 3", n)
	}
}

// TestConcurrentRunsSharedCache hammers one source from many goroutines so
// the LRU hands the same *psgc.Compiled to every worker — run under -race
// this is the service-level concurrency guarantee.
func TestConcurrentRunsSharedCache(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})

	resp, body := postJSON(t, ts.URL+"/interpret", CompileRequest{Source: allocHeavy})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("interpret: %d (%s)", resp.StatusCode, body)
	}
	want := decode[InterpretResponse](t, body).Value

	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cap := 40
			resp, body := postJSON(t, ts.URL+"/run", RunRequest{
				CompileRequest: CompileRequest{Source: allocHeavy, Collector: "generational"},
				Capacity:       &cap,
			})
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Sprintf("status %d: %s", resp.StatusCode, body)
				return
			}
			if rr := decode[RunResponse](t, body); rr.Value != want {
				errs <- fmt.Sprintf("value %d, want %d", rr.Value, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestGracefulShutdown asserts Shutdown waits for in-flight work and that
// the drained server refuses new work with 503.
func TestGracefulShutdown(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s)
	defer ts.Close()

	block := make(chan struct{})
	started := make(chan struct{})
	j := &job{do: func() *response {
		close(started)
		<-block
		return &response{status: http.StatusOK, body: struct{}{}}
	}, done: make(chan *response, 1)}
	s.metrics.EnterQueue()
	s.jobs <- j
	<-started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	select {
	case err := <-shutdownDone:
		t.Fatalf("shutdown returned (%v) while a job was still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(block)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if (<-j.done).status != http.StatusOK {
		t.Errorf("in-flight job did not complete")
	}

	resp, body := postJSON(t, ts.URL+"/interpret", CompileRequest{Source: "1"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown request: status %d (%s), want 503", resp.StatusCode, body)
	}
}

// TestFuelBudget pins the deadline→fuel arithmetic.
func TestFuelBudget(t *testing.T) {
	s := New(Config{DefaultFuel: 1000, StepsPerMilli: 10})
	defer s.Shutdown(context.Background())
	cases := []struct{ fuel, deadline, want int }{
		{0, 0, 1000},  // defaults
		{200, 0, 200}, // explicit fuel
		{0, 5, 50},    // deadline-mapped
		{200, 5, 50},  // smaller of the two
		{30, 5, 30},   // fuel tighter than deadline
		{0, 1000, 1000} /* deadline looser than default */}
	for _, c := range cases {
		if got := s.fuelBudget(c.fuel, c.deadline); got != c.want {
			t.Errorf("fuelBudget(%d, %d) = %d, want %d", c.fuel, c.deadline, got, c.want)
		}
	}
}

// ---------------------------------------------------------------------------
// Observability: tracing, streaming, Prometheus, singleflight
// ---------------------------------------------------------------------------

// TestRunTraceTimeline asserts /run?trace=1 returns a GC-event timeline
// whose counts agree with the machine's own statistics: at least one
// collection span, allocs+copies equal to the puts counter minus the code
// installs, and spans matching the collection count.
func TestRunTraceTimeline(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	resp, body := postJSON(t, ts.URL+"/compile", CompileRequest{Source: allocHeavy, Collector: "forwarding"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d (%s)", resp.StatusCode, body)
	}
	codeBlocks := decode[CompileResponse](t, body).CodeBlocks

	cap := 24
	resp, body = postJSON(t, ts.URL+"/run?trace=1", RunRequest{
		CompileRequest: CompileRequest{Source: allocHeavy, Collector: "forwarding"},
		Capacity:       &cap,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d (%s)", resp.StatusCode, body)
	}
	rr := decode[RunResponse](t, body)
	if rr.Trace == nil || rr.Trace.Timeline == nil {
		t.Fatalf("traced run has no trace report: %s", body)
	}
	if len(rr.Trace.Pipeline) == 0 {
		t.Errorf("trace report has no pipeline spans")
	}
	tl := rr.Trace.Timeline
	if rr.Stats.Collections < 1 || len(tl.Collections) != rr.Stats.Collections {
		t.Errorf("%d collection spans for %d collections", len(tl.Collections), rr.Stats.Collections)
	}
	if tl.Steps != rr.Stats.Steps {
		t.Errorf("timeline steps %d, run stats say %d", tl.Steps, rr.Stats.Steps)
	}
	if got, want := tl.Allocs+tl.Copies, rr.Stats.Puts-codeBlocks; got != want {
		t.Errorf("allocs+copies = %d, puts minus code installs = %d", got, want)
	}
	kinds := map[string]int{}
	for _, ev := range tl.Events {
		kinds[ev.Kind]++
	}
	for _, kind := range []string{obs.KindAlloc, obs.KindCopy, obs.KindForward, obs.KindCollectStart} {
		if kinds[kind] == 0 {
			t.Errorf("timeline has no %q events: %v", kind, kinds)
		}
	}

	// The trace ID is in both the header and the body, and they agree.
	if rr.TraceID == "" || resp.Header.Get("X-Trace-Id") != rr.TraceID {
		t.Errorf("trace ID header %q, body %q", resp.Header.Get("X-Trace-Id"), rr.TraceID)
	}

	// An untraced run of the same program carries no trace report.
	resp, body = postJSON(t, ts.URL+"/run", RunRequest{
		CompileRequest: CompileRequest{Source: allocHeavy, Collector: "forwarding"},
		Capacity:       &cap,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("untraced run: %d (%s)", resp.StatusCode, body)
	}
	if rr := decode[RunResponse](t, body); rr.Trace != nil {
		t.Errorf("untraced run has a trace report")
	}
}

// TestDeadlineTraceReport asserts a fuel-killed traced run still reports
// the timeline up to the cutoff.
func TestDeadlineTraceReport(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, StepsPerMilli: 100})

	resp, body := postJSON(t, ts.URL+"/run?trace=1", RunRequest{
		CompileRequest: CompileRequest{Source: allocHeavy},
		DeadlineMs:     1,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
	eb := decode[errorBody](t, body)
	if eb.Trace == nil || eb.Trace.Timeline == nil {
		t.Fatalf("deadline response has no trace: %s", body)
	}
	if eb.Trace.Timeline.Steps != 100 {
		t.Errorf("cutoff timeline at step %d, want the 100-step budget", eb.Trace.Timeline.Steps)
	}
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	name string
	data []byte
}

// readSSE parses an SSE body into events.
func readSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var (
		events []sseEvent
		cur    sseEvent
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.name != "" || cur.data != nil {
				events = append(events, cur)
				cur = sseEvent{}
			}
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = append(cur.data, strings.TrimPrefix(line, "data: ")...)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE stream: %v", err)
	}
	return events
}

// TestRunStreamSSE drives /run?stream=1 and asserts the stream carries
// monotonically progressing snapshots and ends with a result event whose
// body matches the non-streaming response shape.
func TestRunStreamSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	cap := 24
	payload, err := json.Marshal(RunRequest{
		CompileRequest: CompileRequest{Source: allocHeavy, Collector: "forwarding"},
		Capacity:       &cap,
		ProgressSteps:  500,
		Trace:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/run?stream=1", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}

	events := readSSE(t, resp.Body)
	if len(events) < 2 {
		t.Fatalf("stream delivered %d events, want progress plus a result", len(events))
	}
	last := events[len(events)-1]
	if last.name != "result" {
		t.Fatalf("final event %q (%s), want result", last.name, last.data)
	}

	var prevSteps int
	progressed := 0
	for _, ev := range events[:len(events)-1] {
		if ev.name != "progress" {
			t.Fatalf("unexpected event %q before the result", ev.name)
		}
		var p psgc.Progress
		if err := json.Unmarshal(ev.data, &p); err != nil {
			t.Fatalf("bad progress payload %s: %v", ev.data, err)
		}
		if p.Steps < prevSteps {
			t.Errorf("progress went backwards: %d after %d", p.Steps, prevSteps)
		}
		prevSteps = p.Steps
		progressed++
	}
	if progressed == 0 {
		t.Errorf("no progress events before the result")
	}

	rr := decode[RunResponse](t, last.data)
	if rr.Stats.Collections == 0 || rr.Trace == nil {
		t.Errorf("streamed result lacks collections or trace: %s", last.data)
	}
	if rr.Stats.Steps < prevSteps {
		t.Errorf("final steps %d behind last progress %d", rr.Stats.Steps, prevSteps)
	}
}

// TestMetricsPrometheus asserts the content-negotiated /metrics exposition
// parses as valid Prometheus text format and reflects request traffic.
func TestMetricsPrometheus(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	cap := 24
	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, ts.URL+"/run", RunRequest{
			CompileRequest: CompileRequest{Source: allocHeavy, Collector: "forwarding"},
			Capacity:       &cap,
		}); resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: %d (%s)", i, resp.StatusCode, body)
		}
	}

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type %q, want the 0.0.4 text exposition", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(data)
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, data)
	}

	reqs := fams["psgc_requests_total"]
	if reqs == nil {
		t.Fatal("no psgc_requests_total family")
	}
	found := false
	for _, s := range reqs.Samples {
		if s.Labels["endpoint"] == "run" {
			found = true
			if s.Value != 2 {
				t.Errorf("run requests %v, want 2", s.Value)
			}
		}
	}
	if !found {
		t.Errorf("no endpoint=run sample in %+v", reqs.Samples)
	}
	if fams["psgc_run_latency_ms"] == nil || fams["psgc_run_latency_ms"].Type != "histogram" {
		t.Errorf("run latency histogram missing or mistyped")
	}
	for _, s := range fams["psgc_collections_total"].Samples {
		if s.Labels["collector"] == "forwarding" && s.Value == 0 {
			t.Errorf("forwarding collections counter still 0 after collecting runs")
		}
	}

	// ?format=prometheus negotiates the same representation; the default
	// stays JSON.
	resp2, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("?format=prometheus Content-Type %q", ct)
	}
	resp3, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if ct := resp3.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("default Content-Type %q, want JSON", ct)
	}
}

// TestFlightGroupSingleCompile is the deterministic singleflight contract:
// with a leader parked inside the compile, N followers join its flight and
// the compile function runs exactly once.
func TestFlightGroupSingleCompile(t *testing.T) {
	var g flightGroup
	k := keyFor("shared", psgc.Basic)
	want := &psgc.Compiled{}

	entered := make(chan struct{})
	release := make(chan struct{})
	calls := 0
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		c, _, err, coalesced := g.do(k, func() (*psgc.Compiled, []obs.PhaseSpan, error) {
			calls++
			close(entered)
			<-release
			return want, nil, nil
		})
		if c != want || err != nil || coalesced {
			t.Errorf("leader got (%v, %v, coalesced=%v)", c, err, coalesced)
		}
	}()
	<-entered

	const followers = 8
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, _, err, coalesced := g.do(k, func() (*psgc.Compiled, []obs.PhaseSpan, error) {
				t.Error("follower ran the compile")
				return nil, nil, nil
			})
			if c != want || err != nil || !coalesced {
				t.Errorf("follower got (%v, %v, coalesced=%v)", c, err, coalesced)
			}
		}()
	}
	// Followers must be inside do before the leader finishes for the test
	// to mean anything; give them a moment to park on the done channel.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	<-leaderDone
	if calls != 1 {
		t.Errorf("compile ran %d times, want exactly 1", calls)
	}

	// The flight is gone: the next miss runs a fresh compile.
	_, _, _, coalesced := g.do(k, func() (*psgc.Compiled, []obs.PhaseSpan, error) {
		calls++
		return want, nil, nil
	})
	if coalesced || calls != 2 {
		t.Errorf("post-flight call: coalesced=%v calls=%d", coalesced, calls)
	}
}

// TestCompiledCoalesces pins the server's compile path against an in-flight
// compile: every concurrent miss joins the flight and is counted as
// coalesced, not as a compile.
func TestCompiledCoalesces(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	_ = ts

	src := "40 + 2"
	k := keyFor(src, psgc.Basic)
	call := &flightCall{done: make(chan struct{})}
	s.flights.mu.Lock()
	s.flights.inflight = map[cacheKey]*flightCall{k: call}
	s.flights.mu.Unlock()

	const waiters = 4
	var wg, entered sync.WaitGroup
	entered.Add(waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			entered.Done()
			c, _, cached, err := s.compiled(src, psgc.Basic)
			if err != nil || c == nil || !cached {
				t.Errorf("coalesced compile got (%v, cached=%v, %v)", c, cached, err)
			}
		}()
	}
	// Wait for every waiter to be on its way into the flight before
	// completing it; the LRU stays empty until then, so they can only park
	// on the injected call.
	entered.Wait()
	time.Sleep(50 * time.Millisecond)

	real, spans, err := psgc.CompileTraced(src, psgc.Basic)
	if err != nil {
		t.Fatal(err)
	}
	call.compiled, call.pipeline = real, spans
	s.flights.mu.Lock()
	delete(s.flights.inflight, k)
	s.flights.mu.Unlock()
	close(call.done)
	wg.Wait()

	if got := s.metrics.CacheCoalesced.Load(); got != waiters {
		t.Errorf("coalesced counter %d, want %d", got, waiters)
	}
	if got := s.metrics.CacheMisses.Load(); got != 0 {
		t.Errorf("miss counter %d, want 0 — nobody compiled", got)
	}
}

// TestConcurrentCompileAccounting hammers one fresh source over HTTP and
// checks the cache accounting identity: every request is a hit, a
// coalesced wait, or an actual compile.
func TestConcurrentCompileAccounting(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 8, QueueDepth: 32})

	const clients = 12
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/compile", CompileRequest{Source: allocHeavy + "\n", Collector: "generational"})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("compile: %d (%s)", resp.StatusCode, body)
			}
		}()
	}
	wg.Wait()

	hits := s.metrics.CacheHits.Load()
	misses := s.metrics.CacheMisses.Load()
	coalesced := s.metrics.CacheCoalesced.Load()
	if hits+misses+coalesced != clients {
		t.Errorf("hits %d + misses %d + coalesced %d != %d requests", hits, misses, coalesced, clients)
	}
	if misses < 1 {
		t.Errorf("nobody compiled: misses = %d", misses)
	}
}
