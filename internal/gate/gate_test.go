package gate_test

// Integration tests: a real gate in front of real service backends over
// real HTTP listeners — routing affinity, failover, health rebalancing,
// the peer cache tier, SSE passthrough, and batch splitting.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"psgc/internal/gate"
	"psgc/internal/service"
	"psgc/internal/workload"
)

// fleet is a gate plus its backends, each on a real listener.
type fleet struct {
	gate     *gate.Gate
	gateURL  string
	backends []*backendProc
}

// backendProc is one service on a killable, revivable listener.
type backendProc struct {
	svc  *service.Server
	http *http.Server
	addr string
	url  string
}

func startBackend(t *testing.T, cfg service.Config, addr string) *backendProc {
	t.Helper()
	var l net.Listener
	var err error
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	// A revived backend re-listens on its old address; give the kernel a
	// beat to release it.
	for i := 0; i < 50; i++ {
		if l, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	b := &backendProc{
		svc:  service.New(cfg),
		addr: l.Addr().String(),
	}
	b.url = "http://" + b.addr
	b.http = &http.Server{Handler: b.svc}
	go b.http.Serve(l)
	return b
}

// kill stops the backend's listener and drops its connections, like a
// crashed process.
func (b *backendProc) kill() {
	b.http.Close()
}

func startFleet(t *testing.T, n int, cfg gate.Config, backendCfg service.Config) *fleet {
	t.Helper()
	f := &fleet{}
	for i := 0; i < n; i++ {
		b := startBackend(t, backendCfg, "")
		f.backends = append(f.backends, b)
		cfg.Backends = append(cfg.Backends, b.url)
	}
	g, err := gate.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.gate = g
	ts := httptest.NewServer(g)
	f.gateURL = ts.URL
	t.Cleanup(func() {
		ts.Close()
		g.Close()
		for _, b := range f.backends {
			b.kill()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			b.svc.Shutdown(ctx)
			cancel()
		}
	})
	// Point every backend's peer fetch at the gate, as the fleet quickstart
	// does with -peer/-self.
	for _, b := range f.backends {
		b.svc.SetPeerFetch(f.gateURL+"/peer/fetch", b.url)
	}
	return f
}

func post(t *testing.T, url string, body any) (*http.Response, []byte) {
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
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func decodeAs[T any](t *testing.T, data []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("bad response %s: %v", data, err)
	}
	return v
}

func runReq(n int, collector string) service.RunRequest {
	return service.RunRequest{
		CompileRequest: service.CompileRequest{Source: workload.AllocHeavySrc(n), Collector: collector},
	}
}

func wantValue(n int) int { return n * (n + 1) / 2 }

// TestGateRoutesByAffinity: repeat submissions of one program land on one
// backend (the second is a cache hit there), and the gate relays backend
// trace IDs.
func TestGateRoutesByAffinity(t *testing.T) {
	f := startFleet(t, 3, gate.Config{Seed: 7}, service.Config{Workers: 2, QueueDepth: 16})

	resp, body := post(t, f.gateURL+"/run", runReq(21, "forwarding"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first run: status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Trace-Id") == "" {
		t.Errorf("gate did not relay the backend trace ID")
	}
	first := decodeAs[service.RunResponse](t, body)
	if first.Value != wantValue(21) || first.Cached {
		t.Fatalf("first run: %+v", first)
	}
	resp, body = post(t, f.gateURL+"/run", runReq(21, "forwarding"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second run: status %d: %s", resp.StatusCode, body)
	}
	if second := decodeAs[service.RunResponse](t, body); !second.Cached {
		t.Errorf("affinity broken: repeat submission missed the cache: %+v", second)
	}
	// Exactly one backend saw both requests.
	counts := f.gate.Metrics().BackendRequests.Snapshot()
	var with2 int
	for _, c := range counts {
		if c == 2 {
			with2++
		}
	}
	if with2 != 1 {
		t.Errorf("backend request spread %v, want both runs on one backend", counts)
	}
}

// TestGateFailover: killing the backend that owns a key reroutes its
// requests to a survivor, invisibly to the client.
func TestGateFailover(t *testing.T) {
	f := startFleet(t, 3, gate.Config{Seed: 7, RetryBaseMs: 1}, service.Config{Workers: 2, QueueDepth: 16})

	resp, body := post(t, f.gateURL+"/run", runReq(33, "basic"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d: %s", resp.StatusCode, body)
	}
	// The owner is the backend that actually served the run (the gate's
	// per-backend counts also include peer-export probes, so ask the
	// backends themselves).
	var killed int
	for _, b := range f.backends {
		if b.svc.Metrics().RunRequests.Load() > 0 {
			b.kill()
			killed++
		}
	}
	if killed != 1 {
		t.Fatalf("killed %d owners, want exactly 1", killed)
	}
	resp, body = post(t, f.gateURL+"/run", runReq(33, "basic"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run after kill: status %d: %s", resp.StatusCode, body)
	}
	if rr := decodeAs[service.RunResponse](t, body); rr.Value != wantValue(33) {
		t.Errorf("failover run computed %d, want %d", rr.Value, wantValue(33))
	}
	if f.gate.Metrics().Retries.Load() == 0 {
		t.Errorf("failover did not count a retry")
	}
	if f.gate.Metrics().Rebalances.Load() == 0 {
		t.Errorf("dead backend did not trigger a ring rebalance")
	}
}

// TestGateHealthRebalance: the health loop drops a killed backend from the
// ring and readmits it when it comes back, and a drained (shutting-down)
// backend leaves the ring off its own /healthz.
func TestGateHealthRebalance(t *testing.T) {
	f := startFleet(t, 3, gate.Config{Seed: 7, HealthEvery: 25 * time.Millisecond},
		service.Config{Workers: 1, QueueDepth: 8})

	waitRing := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := http.Get(f.gateURL + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			var h struct {
				Ring []string `json:"ring"`
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err := json.Unmarshal(body, &h); err != nil {
				t.Fatalf("healthz: %v: %s", err, body)
			}
			if len(h.Ring) == want {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("ring never converged to %d nodes", want)
	}

	waitRing(3)
	victim := f.backends[1]
	victim.kill()
	waitRing(2)

	// Revive on the same address: the ring readmits it and, because ring
	// placement depends only on (seed, name), it gets its old keys back.
	revived := startBackend(t, service.Config{Workers: 1, QueueDepth: 8}, victim.addr)
	t.Cleanup(func() {
		revived.kill()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		revived.svc.Shutdown(ctx)
		cancel()
	})
	waitRing(3)

	// A draining backend reports shutting_down on /healthz and must leave
	// the ring even though its listener still answers.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	f.backends[2].svc.Shutdown(ctx)
	cancel()
	waitRing(2)
	if f.gate.Metrics().Rebalances.Load() < 3 {
		t.Errorf("rebalances = %d, want at least 3 (leave, return, drain)", f.gate.Metrics().Rebalances.Load())
	}
}

// TestGatePeerCacheTier: a backend that misses its local cache pulls the
// compiled entry from a sibling through the gate instead of recompiling.
func TestGatePeerCacheTier(t *testing.T) {
	f := startFleet(t, 2, gate.Config{Seed: 7}, service.Config{Workers: 2, QueueDepth: 16})
	a, b := f.backends[0], f.backends[1]

	src := workload.AllocHeavySrc(27)
	// Compile on A directly (bypassing the gate, as if routed there).
	resp, body := post(t, a.url+"/run", service.RunRequest{
		CompileRequest: service.CompileRequest{Source: src, Collector: "generational"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("priming run on A: status %d: %s", resp.StatusCode, body)
	}
	// Run the same program on B directly: its local miss goes through the
	// gate's peer tier and finds A's entry.
	resp, body = post(t, b.url+"/run", service.RunRequest{
		CompileRequest: service.CompileRequest{Source: src, Collector: "generational"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run on B: status %d: %s", resp.StatusCode, body)
	}
	if rr := decodeAs[service.RunResponse](t, body); rr.Value != wantValue(27) {
		t.Errorf("peer-served run computed %d, want %d", rr.Value, wantValue(27))
	}
	if got := b.svc.Metrics().PeerHits.Load(); got != 1 {
		t.Errorf("backend B peer hits = %d, want 1", got)
	}
	if got := f.gate.Metrics().PeerHits.Load(); got != 1 {
		t.Errorf("gate peer hits = %d, want 1", got)
	}
	if ratio := f.gate.Metrics().PeerHitRatio(); ratio <= 0 {
		t.Errorf("gate peer hit ratio = %v, want > 0", ratio)
	}
}

// TestGateSSEPassthrough: a streamed run through the gate keeps its SSE
// content type and delivers progress events ahead of the result.
func TestGateSSEPassthrough(t *testing.T) {
	f := startFleet(t, 2, gate.Config{Seed: 7}, service.Config{Workers: 1, QueueDepth: 8})

	cap := 24
	payload, _ := json.Marshal(service.RunRequest{
		CompileRequest: service.CompileRequest{Source: workload.AllocHeavySrc(30), Collector: "forwarding"},
		Capacity:       &cap,
		ProgressSteps:  500,
	})
	resp, err := http.Post(f.gateURL+"/run?stream=1", "application/json", bytes.NewReader(payload))
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
	var events, progress int
	var last string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			events++
			last = name
			if name == "progress" {
				progress++
			}
		}
	}
	if progress == 0 || last != "result" {
		t.Errorf("stream through gate: %d events, %d progress, last %q; want progress then result", events, progress, last)
	}
}

// TestGateBatchSplit: a batch through the gate splits across backends by
// affinity and merges back in order, including isolated per-item failures.
func TestGateBatchSplit(t *testing.T) {
	f := startFleet(t, 3, gate.Config{Seed: 7}, service.Config{Workers: 2, QueueDepth: 32})

	var items []service.RunRequest
	for n := 5; n < 13; n++ {
		items = append(items, runReq(n, []string{"basic", "forwarding", "generational"}[n%3]))
	}
	items = append(items, runReq(5, "marksweep")) // isolated per-item 400
	resp, body := post(t, f.gateURL+"/batch", service.BatchRequest{Items: items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
	}
	var br struct {
		Items     []service.BatchItemResult `json:"items"`
		Completed int                       `json:"completed"`
		Failed    int                       `json:"failed"`
	}
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatalf("bad batch response: %v: %s", err, body)
	}
	if br.Completed != 8 || br.Failed != 1 || len(br.Items) != 9 {
		t.Fatalf("batch outcome %d/%d of %d items, want 8/1 of 9: %s", br.Completed, br.Failed, len(br.Items), body)
	}
	for i := 0; i < 8; i++ {
		if br.Items[i].Run == nil || br.Items[i].Run.Value != wantValue(i+5) {
			t.Errorf("item %d out of order or failed: %+v", i, br.Items[i])
		}
	}
	if br.Items[8].Error == nil || br.Items[8].Status != http.StatusBadRequest {
		t.Errorf("invalid item not isolated: %+v", br.Items[8])
	}
	splits := f.gate.Metrics().BatchSplits.Snapshot()
	var total int64
	for _, c := range splits {
		total += c
	}
	if total != 9 {
		t.Errorf("batch splits %v sum to %d, want 9", splits, total)
	}
	if len(splits) < 2 {
		t.Errorf("batch did not split across backends: %v", splits)
	}
}

// TestFleetSmoke is the CI fleet drill: a 3-node fleet serves a sweep of
// E1-style workloads through the gate while one backend is killed
// mid-run. Every request must complete — served by the owner, retried
// onto a survivor, or shed with a Retry-After — and the ring must
// converge to the survivors.
func TestFleetSmoke(t *testing.T) {
	f := startFleet(t, 3,
		gate.Config{Seed: 7, HealthEvery: 50 * time.Millisecond, RetryBaseMs: 1},
		service.Config{Workers: 2, QueueDepth: 64})

	const requests = 60
	type outcome struct {
		status     int
		retryAfter string
		body       string
	}
	results := make(chan outcome, requests)
	for i := 0; i < requests; i++ {
		go func(i int) {
			n := 10 + i%20
			col := []string{"basic", "forwarding", "generational"}[i%3]
			buf, _ := json.Marshal(runReq(n, col))
			resp, err := http.Post(f.gateURL+"/run", "application/json", bytes.NewReader(buf))
			if err != nil {
				results <- outcome{status: -1, body: err.Error()}
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			results <- outcome{resp.StatusCode, resp.Header.Get("Retry-After"), string(body)}
		}(i)
		if i == requests/2 {
			f.backends[0].kill()
		}
	}

	var ok, shed int
	for i := 0; i < requests; i++ {
		r := <-results
		switch {
		case r.status == http.StatusOK:
			ok++
		case (r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable) && r.retryAfter != "":
			shed++
		default:
			t.Errorf("lost request: status %d retry-after %q: %s", r.status, r.retryAfter, r.body)
		}
	}
	if ok == 0 {
		t.Fatalf("no request completed (%d shed)", shed)
	}
	t.Logf("fleet smoke: %d ok, %d shed with Retry-After", ok, shed)

	// Ring converges to the two survivors.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(f.gateURL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h struct {
			Ring []string `json:"ring"`
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		json.Unmarshal(body, &h)
		if len(h.Ring) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring never converged to the 2 survivors: %s", body)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if f.gate.Metrics().Rebalances.Load() == 0 {
		t.Errorf("killing a backend caused no rebalance")
	}
}

// TestGateNoBackends: a gate needs at least one backend.
func TestGateNoBackends(t *testing.T) {
	if _, err := gate.New(gate.Config{}); err == nil {
		t.Fatal("gate.New with no backends succeeded")
	}
	if _, err := gate.New(gate.Config{Backends: []string{"http://a", "http://a"}}); err == nil {
		t.Fatal("gate.New with duplicate backends succeeded")
	}
}

// TestGateMetricsExposition: the gate's Prometheus exposition parses and
// carries the fleet families.
func TestGateMetricsExposition(t *testing.T) {
	f := startFleet(t, 2, gate.Config{Seed: 7}, service.Config{Workers: 1, QueueDepth: 8})
	post(t, f.gateURL+"/run", runReq(9, "basic"))

	resp, err := http.Get(f.gateURL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, fam := range []string{
		"psgc_gate_backend_requests_total",
		"psgc_gate_ring_rebalances_total",
		"psgc_gate_peer_fetch_total",
		"psgc_gate_peer_hit_ratio",
		"psgc_gate_batch_items_total",
		"psgc_gate_backend_up",
	} {
		if !bytes.Contains(body, []byte(fam)) {
			t.Errorf("exposition lacks %s", fam)
		}
	}
	if !bytes.Contains(body, []byte(fmt.Sprintf("backend=%q", f.backends[0].url))) {
		t.Errorf("exposition lacks per-backend labels: %s", body)
	}
}

// TestGateForwardsBackendAndPolicyQuery: the gate passes the query string
// through to the owning backend untouched, so fleet clients can pick the
// adaptive policy per request, and the backend's own answers — a 400 for a
// bogus policy or for naming a memory backend — reach the client as is.
func TestGateForwardsBackendAndPolicyQuery(t *testing.T) {
	f := startFleet(t, 2, gate.Config{Seed: 7}, service.Config{Workers: 2, QueueDepth: 8})

	resp, body := post(t, f.gateURL+"/run?policy=adaptive", runReq(21, "basic"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run via gate: status %d: %s", resp.StatusCode, body)
	}
	got := decodeAs[service.RunResponse](t, body)
	if got.Value != wantValue(21) {
		t.Fatalf("value %d, want %d", got.Value, wantValue(21))
	}
	if got.Policy != "adaptive" || got.Decision == nil {
		t.Errorf("?policy=adaptive not forwarded: policy %q decision %+v", got.Policy, got.Decision)
	}

	// Unknown values still come back as the backend's 400, not a gate error.
	resp, body = post(t, f.gateURL+"/run?policy=bogus", runReq(21, "basic"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus policy via gate: status %d: %s", resp.StatusCode, body)
	}
	// Memory-backend selection was removed; naming one is a 400 through the
	// gate too, in the query or in the body.
	resp, body = post(t, f.gateURL+"/run?backend=map", runReq(21, "basic"))
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte("backend selection was removed")) {
		t.Fatalf("?backend=map via gate: status %d: %s", resp.StatusCode, body)
	}
	resp, body = post(t, f.gateURL+"/run", map[string]any{"source": "1", "backend": "arena"})
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte("backend selection was removed")) {
		t.Fatalf("backend in body via gate: status %d: %s", resp.StatusCode, body)
	}
}

// TestGatePolicyTelemetry: the health loop scrapes each backend's policy
// surface and re-exports it in the gate's /healthz and /metrics.
func TestGatePolicyTelemetry(t *testing.T) {
	f := startFleet(t, 2, gate.Config{Seed: 7, HealthEvery: 25 * time.Millisecond},
		service.Config{Workers: 1, QueueDepth: 8, DefaultPolicy: "adaptive"})
	resp, body := post(t, f.gateURL+"/run", runReq(15, "basic"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d: %s", resp.StatusCode, body)
	}

	// Wait for a health tick to scrape the now-nonzero backend counters.
	deadline := time.Now().Add(5 * time.Second)
	var seen bool
	for time.Now().Before(deadline) && !seen {
		hresp, err := http.Get(f.gateURL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		hbody, _ := io.ReadAll(hresp.Body)
		hresp.Body.Close()
		h := decodeAs[map[string]any](t, hbody)
		backends, _ := h["backends"].(map[string]any)
		for _, v := range backends {
			b, _ := v.(map[string]any)
			pol, ok := b["policy"].(map[string]any)
			if !ok {
				continue
			}
			if pol["default_policy"] != "adaptive" {
				t.Fatalf("scraped default_policy %v, want adaptive", pol["default_policy"])
			}
			if runs, _ := pol["profiled_runs"].(float64); runs >= 1 {
				seen = true
			}
		}
		if !seen {
			time.Sleep(25 * time.Millisecond)
		}
	}
	if !seen {
		t.Fatalf("gate healthz never surfaced a backend with profiled_runs >= 1")
	}

	mresp, err := http.Get(f.gateURL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mbody, _ := io.ReadAll(mresp.Body)
	for _, fam := range []string{
		"psgc_gate_backend_profiled_runs",
		"psgc_gate_backend_profiles",
		"psgc_gate_backend_policy_decisions",
		"psgc_gate_backend_policy_flips",
	} {
		if !bytes.Contains(mbody, []byte(fam)) {
			t.Errorf("exposition lacks %s", fam)
		}
	}

	jresp, err := http.Get(f.gateURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	jbody, _ := io.ReadAll(jresp.Body)
	j := decodeAs[map[string]any](t, jbody)
	if _, ok := j["backend_policy"].(map[string]any); !ok {
		t.Errorf("json metrics lack backend_policy: %s", jbody)
	}
}
