package service

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"psgc"
	"psgc/internal/workload"
)

// TestCacheExportEndpoint checks /cache/export serves a re-importable
// compiled entry for cached keys and clean errors otherwise.
func TestCacheExportEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})

	src := workload.AllocHeavySrc(12)
	resp, body := postJSON(t, ts.URL+"/run", RunRequest{
		CompileRequest: CompileRequest{Source: src, Collector: "forwarding"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("priming run: status %d: %s", resp.StatusCode, body)
	}
	hash := decode[RunResponse](t, body).SourceHash

	resp, raw := getJSON(t, fmt.Sprintf("%s/cache/export?hash=%s&collector=forwarding", ts.URL, hash))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export: status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("export content type %q", ct)
	}
	imp, err := psgc.ImportCompiled(raw)
	if err != nil {
		t.Fatalf("exported entry does not import: %v", err)
	}
	res, err := imp.Run(psgc.RunOptions{Capacity: 24})
	if err != nil {
		t.Fatal(err)
	}
	if want := chaosWant(12); res.Value != want {
		t.Errorf("imported entry computed %d, want %d", res.Value, want)
	}

	// Same hash, different collector: a distinct cache key, so a miss.
	resp, raw = getJSON(t, fmt.Sprintf("%s/cache/export?hash=%s&collector=basic", ts.URL, hash))
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("uncached collector: status %d (%s), want 404", resp.StatusCode, raw)
	}
	resp, raw = getJSON(t, ts.URL+"/cache/export?hash=zz&collector=basic")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed hash: status %d (%s), want 400", resp.StatusCode, raw)
	}
}

// TestPeerFetchOnMiss points a server at a stub peer endpoint and checks a
// cache miss is served from the peer instead of the compiler — and that a
// peer serving garbage is rejected and the compile happens anyway.
func TestPeerFetchOnMiss(t *testing.T) {
	src := workload.AllocHeavySrc(18)
	c, err := psgc.Compile(src, psgc.Basic)
	if err != nil {
		t.Fatal(err)
	}
	exported, err := c.Export()
	if err != nil {
		t.Fatal(err)
	}

	var peerCalls int
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		peerCalls++
		if got := r.URL.Query().Get("hash"); got != SourceHash(src) {
			t.Errorf("peer fetch hash %q, want %q", got, SourceHash(src))
		}
		w.Write(exported)
	}))
	defer peer.Close()

	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8,
		PeerFetchURL: peer.URL, PeerSelf: "http://self.test"})
	resp, body := postJSON(t, ts.URL+"/run", RunRequest{
		CompileRequest: CompileRequest{Source: src, Collector: "basic"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d: %s", resp.StatusCode, body)
	}
	if rr := decode[RunResponse](t, body); rr.Value != chaosWant(18) {
		t.Errorf("peer-served run computed %d, want %d", rr.Value, chaosWant(18))
	}
	if peerCalls != 1 {
		t.Errorf("peer endpoint called %d times, want 1", peerCalls)
	}
	if got := s.metrics.PeerHits.Load(); got != 1 {
		t.Errorf("peer hit counter = %d, want 1", got)
	}
	// The imported entry is now cached: a rerun stays local.
	resp, body = postJSON(t, ts.URL+"/run", RunRequest{
		CompileRequest: CompileRequest{Source: src, Collector: "basic"},
	})
	if resp.StatusCode != http.StatusOK || !decode[RunResponse](t, body).Cached {
		t.Errorf("rerun after peer import not served from local cache: %s", body)
	}
	if peerCalls != 1 {
		t.Errorf("rerun went back to the peer (%d calls)", peerCalls)
	}

	// A peer that serves garbage is an import error, not a failure: the
	// run falls back to compiling locally.
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "these are not the bytes you are looking for")
	}))
	defer garbage.Close()
	s2, ts2 := newTestServer(t, Config{Workers: 1, QueueDepth: 8, PeerFetchURL: garbage.URL})
	resp, body = postJSON(t, ts2.URL+"/run", RunRequest{
		CompileRequest: CompileRequest{Source: src, Collector: "basic"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run with garbage peer: status %d: %s", resp.StatusCode, body)
	}
	if got := s2.metrics.PeerImportErrors.Load(); got != 1 {
		t.Errorf("peer import error counter = %d, want 1", got)
	}
}

// TestHealthzReportsEngineAndBuild pins what /healthz says about the
// serving build, and that it no longer reports an engine default: there is
// no engine to choose.
func TestHealthzReportsEngineAndBuild(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	resp, body := getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	h := decode[map[string]any](t, body)
	if v, ok := h["default_engine"]; ok {
		t.Errorf("default_engine = %v, want no engine default", v)
	}
	build, ok := h["build"].(map[string]any)
	if !ok || build["go"] == "" {
		t.Errorf("healthz build info missing: %v", h["build"])
	}
}

// TestRunsReportEnvEngine checks that runs are served by the environment
// machine, plain or co-checked, and say so in the response.
func TestRunsReportEnvEngine(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	for _, path := range []string{"/run", "/run?cocheck=1"} {
		resp, body := postJSON(t, ts.URL+path, RunRequest{
			CompileRequest: CompileRequest{Source: "1 + 2"},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, body)
		}
		rr := decode[RunResponse](t, body)
		if rr.Value != 3 || rr.Engine != "env" || rr.Diverged {
			t.Errorf("%s: value %d engine %q diverged %v, want 3 on env", path, rr.Value, rr.Engine, rr.Diverged)
		}
		if want := path != "/run"; rr.CoChecked != want {
			t.Errorf("%s: cochecked %v, want %v", path, rr.CoChecked, want)
		}
	}
}
