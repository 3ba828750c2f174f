// Package gate is the fleet front for psgc-served backends: one HTTP
// server that routes /run, /compile, and /interpret requests across N
// backends by consistent hashing on (source hash, collector), so each
// backend's compiled-program cache warms for its own shard of the
// keyspace. The gate health-checks backends off their /healthz (a
// shutting-down or degraded node leaves the ring; a recovered one
// returns), retries idempotent requests on surviving replicas with seeded
// jittered backoff — runs are deterministic, so a retry can never change
// the answer — and passes trace IDs, Retry-After, and SSE streams through
// untouched. It also serves the fleet's peer cache tier (/peer/fetch) and
// splits /batch requests into per-backend sub-batches along the same
// affinity.
package gate

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"psgc/internal/obs"
)

// Config sizes the gate.
type Config struct {
	// Backends are the psgc-served base URLs (e.g. http://127.0.0.1:8372).
	Backends []string
	// Seed drives ring placement and retry jitter; fixed seed, fixed fleet,
	// fixed routing.
	Seed uint64
	// VNodes is the virtual nodes per backend (default 64).
	VNodes int
	// HealthEvery is the health-check cadence (default 1s).
	HealthEvery time.Duration
	// HealthTimeout bounds one health probe (default 2s).
	HealthTimeout time.Duration
	// RetryMax is the total attempts per request across distinct replicas
	// (default 3, capped at the backend count).
	RetryMax int
	// RetryBaseMs is the backoff base before the 2nd attempt (default 25).
	RetryBaseMs int
	// PeerTimeout bounds one /cache/export fetch from a backend
	// (default 2s).
	PeerTimeout time.Duration
	// MaxBodyBytes caps proxied request bodies (default 1 MiB).
	MaxBodyBytes int64
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.HealthEvery <= 0 {
		c.HealthEvery = time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = 2 * time.Second
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 3
	}
	if c.RetryBaseMs <= 0 {
		c.RetryBaseMs = 25
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 2 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	return c
}

// backendPolicy is the adaptive-policy surface scraped from a backend's
// /healthz on each health pass: what the node defaults to and how much its
// profile store and decision engine have seen. The gate re-exports these
// per backend, giving the fleet view of where adaptive decisions happen.
type backendPolicy struct {
	DefaultPolicy string  `json:"default_policy,omitempty"`
	ProfiledRuns  float64 `json:"profiled_runs"`
	Profiles      float64 `json:"profiles"`
	Decisions     float64 `json:"decisions"`
	Flips         float64 `json:"flips"`
}

// backendState is what the gate believes about one backend.
type backendState struct {
	// state is "up", "degraded" (reachable but shedding), or "down".
	state   string
	lastErr string
	checks  int64
	policy  backendPolicy
}

// Gate is the fleet front. Create with New, serve it as an http.Handler,
// Close when done.
type Gate struct {
	cfg     Config
	mux     *http.ServeMux
	metrics *Metrics
	start   time.Time

	mu       sync.RWMutex
	ring     *Ring
	backends map[string]*backendState

	// streams tracks in-flight SSE runs by gate-minted trace ID, the
	// migration unit when a backend degrades (see migrate.go).
	streamMu sync.Mutex
	streams  map[string]*liveStream

	// compiling is the fleet-wide compile singleflight: key -> the backend
	// URL currently compiling it (see peer.go).
	sfMu      sync.Mutex
	compiling map[string]string

	rngMu sync.Mutex
	rng   *rand.Rand

	// client proxies requests (no overall timeout: SSE runs are long-lived;
	// per-run bounds are the backend's watchdog and the client's patience).
	client *http.Client
	// probe is the short-timeout client for health checks and peer fetches.
	probe *http.Client

	stop chan struct{}
	wg   sync.WaitGroup
}

// New builds the gate and starts its health loop. All configured backends
// start in the ring ("up" optimistically); the first health pass corrects
// the picture within HealthEvery.
func New(cfg Config) (*Gate, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("gate: no backends configured")
	}
	g := &Gate{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		metrics:   &Metrics{},
		start:     time.Now(),
		backends:  map[string]*backendState{},
		streams:   map[string]*liveStream{},
		compiling: map[string]string{},
		rng:       rand.New(rand.NewSource(int64(cfg.Seed))),
		client:    &http.Client{},
		probe:     &http.Client{Timeout: cfg.HealthTimeout},
		stop:      make(chan struct{}),
	}
	for _, b := range cfg.Backends {
		if _, dup := g.backends[b]; dup {
			return nil, fmt.Errorf("gate: duplicate backend %s", b)
		}
		g.backends[b] = &backendState{state: "up"}
	}
	g.ring = NewRing(cfg.Seed, cfg.VNodes, cfg.Backends)
	g.mux.HandleFunc("/run", g.handleProxy)
	g.mux.HandleFunc("/compile", g.handleProxy)
	g.mux.HandleFunc("/interpret", g.handleProxy)
	g.mux.HandleFunc("/batch", g.handleBatch)
	g.mux.HandleFunc("/peer/fetch", g.handlePeerFetch)
	g.mux.HandleFunc("/healthz", g.handleHealthz)
	g.mux.HandleFunc("/metrics", g.handleMetrics)
	g.wg.Add(1)
	go g.healthLoop()
	return g, nil
}

// ServeHTTP implements http.Handler.
func (g *Gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

// Close stops the health loop.
func (g *Gate) Close() {
	close(g.stop)
	g.wg.Wait()
}

// Metrics exposes the registry (for the binary and tests).
func (g *Gate) Metrics() *Metrics { return g.metrics }

// ---------------------------------------------------------------------------
// Health and ring membership
// ---------------------------------------------------------------------------

func (g *Gate) healthLoop() {
	defer g.wg.Done()
	t := time.NewTicker(g.cfg.HealthEvery)
	defer t.Stop()
	g.checkAll()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
			g.checkAll()
		}
	}
}

func (g *Gate) checkAll() {
	type verdict struct {
		url, state, lastErr string
		policy              backendPolicy
	}
	results := make(chan verdict, len(g.cfg.Backends))
	for _, b := range g.cfg.Backends {
		go func(b string) {
			state, errMsg, pol := g.checkBackend(b)
			results <- verdict{b, state, errMsg, pol}
		}(b)
	}
	g.mu.Lock()
	var left []string
	for range g.cfg.Backends {
		v := <-results
		st := g.backends[v.url]
		if st.state == "up" && v.state != "up" {
			left = append(left, v.url)
		}
		st.state = v.state
		st.lastErr = v.lastErr
		st.checks++
		if v.state != "down" {
			st.policy = v.policy
		}
	}
	g.rebuildLocked()
	g.mu.Unlock()
	// A backend that left "up" takes its in-flight streams with it unless
	// they move: snapshot each and resume on a ring successor.
	for _, b := range left {
		g.migrateStreams(b)
	}
}

// checkBackend probes one /healthz. "up" needs a 200 with status "ok" and
// no degradation; a shedding backend is "degraded" and leaves the ring
// until it recovers, so plain traffic concentrates on healthy replicas.
// The same probe scrapes the backend's adaptive-policy surface, so the
// gate's health pass doubles as the fleet's policy telemetry collector.
func (g *Gate) checkBackend(base string) (state, errMsg string, pol backendPolicy) {
	resp, err := g.probe.Get(base + "/healthz")
	if err != nil {
		return "down", err.Error(), pol
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return "down", fmt.Sprintf("healthz status %d", resp.StatusCode), pol
	}
	var body struct {
		Status        string `json:"status"`
		Degradation   string `json:"degradation_mode"`
		DefaultPolicy string `json:"default_policy"`
		Policy        struct {
			ProfiledRuns float64 `json:"profiled_runs"`
			Profiles     float64 `json:"profiles"`
			Counts       struct {
				Decisions float64 `json:"decisions"`
				Flips     float64 `json:"flips"`
			} `json:"counts"`
		} `json:"policy"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body); err != nil {
		return "down", "healthz: " + err.Error(), pol
	}
	pol = backendPolicy{
		DefaultPolicy: body.DefaultPolicy,
		ProfiledRuns:  body.Policy.ProfiledRuns,
		Profiles:      body.Policy.Profiles,
		Decisions:     body.Policy.Counts.Decisions,
		Flips:         body.Policy.Counts.Flips,
	}
	if body.Status != "ok" {
		return "down", "healthz status " + body.Status, pol
	}
	if body.Degradation != "" && body.Degradation != "normal" {
		return "degraded", "degradation " + body.Degradation, pol
	}
	return "up", "", pol
}

// markDown records a transport-level failure immediately, without waiting
// for the next health tick, so in-flight retries already route around the
// dead node.
func (g *Gate) markDown(base string, err error) {
	g.mu.Lock()
	transitioned := false
	if st, ok := g.backends[base]; ok && st.state != "down" {
		st.state = "down"
		st.lastErr = err.Error()
		g.rebuildLocked()
		transitioned = true
	}
	g.mu.Unlock()
	if transitioned {
		// Best-effort: a transport-dead node will fail the snapshot POST
		// too, but a node that only broke for one request may still serve it.
		g.migrateStreams(base)
	}
}

// rebuildLocked recomputes ring membership from backend states. Up nodes
// form the ring; if none are up, degraded nodes are better than nothing;
// an all-down fleet leaves the ring empty and requests fail fast with 503.
// Callers hold g.mu.
func (g *Gate) rebuildLocked() {
	var up, degraded []string
	for url, st := range g.backends {
		switch st.state {
		case "up":
			up = append(up, url)
		case "degraded":
			degraded = append(degraded, url)
		}
	}
	members := up
	if len(members) == 0 {
		members = degraded
	}
	if g.ring.sameNodes(members) {
		return
	}
	g.ring = NewRing(g.cfg.Seed, g.cfg.VNodes, members)
	g.metrics.Rebalances.Add(1)
}

// candidates returns the failover chain for a key: the owner plus ring
// successors, up to RetryMax distinct backends.
func (g *Gate) candidates(key string) []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.ring.Successors(key, g.cfg.RetryMax)
}

// ---------------------------------------------------------------------------
// Proxying
// ---------------------------------------------------------------------------

// affinityKey is the routing key: the sha256 of the program source plus
// the collector, matching the backends' compiled-program cache key. An
// empty source (malformed request) still routes deterministically.
func affinityKey(source, collector string) string {
	h := sha256.Sum256([]byte(source))
	return hex.EncodeToString(h[:]) + "|" + collector
}

// retryable reports whether a backend response should fail over to the
// next replica: 502s and 503s mean this node cannot serve the request but
// another might (a draining node 503s everything; its siblings are fine).
// Anything else — including 429 backpressure and 504 watchdog cuts — is a
// real answer about the request and is relayed as-is.
func retryable(status int) bool {
	return status == http.StatusBadGateway || status == http.StatusServiceUnavailable
}

// backoff sleeps before retry attempt n (1-based) with seeded jitter:
// base * 2^(n-1) * [0.5, 1.5).
func (g *Gate) backoff(n int) {
	g.rngMu.Lock()
	f := 0.5 + g.rng.Float64()
	g.rngMu.Unlock()
	d := time.Duration(float64(g.cfg.RetryBaseMs)*float64(int(1)<<(n-1))*f) * time.Millisecond
	time.Sleep(d)
}

// forward tries candidates in order until one yields a non-retryable
// response, marking transport failures down as it goes. It returns the
// winning response (caller closes the body) and the backend that served
// it; err is non-nil only when every candidate failed at the transport
// level.
func (g *Gate) forward(r *http.Request, path string, body []byte, candidates []string) (*http.Response, string, error) {
	var lastErr error
	for i, base := range candidates {
		if i > 0 {
			g.metrics.Retries.Add(1)
			g.backoff(i)
		}
		// The raw query string passes through untouched, so per-request
		// knobs the backends own (?policy=, ?trace=, ?cocheck=)
		// work identically through the gate.
		url := base + path
		if r.URL.RawQuery != "" {
			url += "?" + r.URL.RawQuery
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, url, bytes.NewReader(body))
		if err != nil {
			return nil, "", err
		}
		if ct := r.Header.Get("Content-Type"); ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		if accept := r.Header.Get("Accept"); accept != "" {
			req.Header.Set("Accept", accept)
		}
		// The gate stamps streaming runs with its own trace ID (and passes
		// caller IDs through) so POST /snapshot can later name the run.
		if id := r.Header.Get("X-Trace-Id"); id != "" {
			req.Header.Set("X-Trace-Id", id)
		}
		resp, err := g.client.Do(req)
		if err != nil {
			if r.Context().Err() != nil {
				// The client went away; nothing to route around.
				return nil, "", err
			}
			g.markDown(base, err)
			lastErr = err
			continue
		}
		g.metrics.BackendRequests.Add(base, 1)
		if retryable(resp.StatusCode) && i < len(candidates)-1 {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			continue
		}
		return resp, base, nil
	}
	return nil, "", lastErr
}

// handleProxy routes /run, /compile, and /interpret by cache affinity.
func (g *Gate) handleProxy(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes))
	if err != nil {
		g.writeError(w, http.StatusRequestEntityTooLarge, "request body: "+err.Error())
		return
	}
	var aff struct {
		Source    string `json:"source"`
		Collector string `json:"collector"`
		Stream    bool   `json:"stream"`
	}
	// Affinity extraction is best-effort: a body the backend will reject
	// still routes deterministically off its raw bytes.
	if err := json.Unmarshal(body, &aff); err != nil {
		aff.Source = string(body)
	}
	key := affinityKey(aff.Source, aff.Collector)
	candidates := g.candidates(key)
	if len(candidates) == 0 {
		w.Header().Set("Retry-After", "1")
		g.writeError(w, http.StatusServiceUnavailable, "no healthy backends")
		return
	}
	// Streaming runs get a gate-minted trace ID (unless the caller sent
	// one) so the migration loop can address them by name.
	var st *liveStream
	if r.URL.Path == "/run" && (aff.Stream || queryFlag(r, "stream")) {
		traceID := r.Header.Get("X-Trace-Id")
		if traceID == "" {
			traceID = obs.NewTraceID()
			r.Header.Set("X-Trace-Id", traceID)
		}
		st = &liveStream{traceID: traceID, key: key, blobCh: make(chan []byte, 1)}
	}
	resp, base, err := g.forward(r, r.URL.Path, body, candidates)
	if err != nil {
		if r.Context().Err() != nil {
			return
		}
		w.Header().Set("Retry-After", "1")
		g.writeError(w, http.StatusServiceUnavailable, "all backends failed: "+err.Error())
		return
	}
	if st != nil && resp.StatusCode == http.StatusOK &&
		strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		st.setBackend(base)
		g.registerStream(st)
		defer g.unregisterStream(st.traceID)
		defer resp.Body.Close()
		g.relayStream(w, r, resp, st)
		return
	}
	defer resp.Body.Close()
	g.relay(w, resp)
}

// queryFlag reports whether a boolean query knob is on, mirroring the
// backends' flagged() semantics closely enough for routing decisions.
func queryFlag(r *http.Request, name string) bool {
	v := r.URL.Query().Get(name)
	return v != "" && v != "0" && v != "false"
}

// relay copies a backend response to the client, streaming the body with
// per-write flushes so SSE events pass through as they happen.
func (g *Gate) relay(w http.ResponseWriter, resp *http.Response) {
	for _, h := range []string{"Content-Type", "X-Trace-Id", "Retry-After", "Cache-Control", "Allow"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	g.metrics.countOutcome(resp.StatusCode)
	w.WriteHeader(resp.StatusCode)
	io.Copy(flushWriter{w}, resp.Body)
}

// flushWriter flushes after every write, which is what keeps proxied SSE
// streams live instead of buffered to the end of the run.
type flushWriter struct{ w http.ResponseWriter }

func (f flushWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	if fl, ok := f.w.(http.Flusher); ok {
		fl.Flush()
	}
	return n, err
}

func (g *Gate) writeError(w http.ResponseWriter, status int, msg string) {
	g.metrics.countOutcome(status)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(map[string]string{"error": msg})
}
