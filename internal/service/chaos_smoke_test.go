package service

// The default-on slice of the chaos suite: every fault point gets a quick
// workout inside the ordinary `go test ./...` run. The heavier matrix —
// concurrency hammering, timeline identities under sustained faults, storm
// coherence — lives in chaos_test.go behind the `chaos` build tag. All
// names match -run Chaos so CI selects the full suite with one pattern.

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"psgc/internal/fault"
	"psgc/internal/workload"
)

// chaosWant is the value of workload.AllocHeavySrc(n): build n sums n..1.
func chaosWant(n int) int { return n * (n + 1) / 2 }

// wellFormedRun decodes a response that must be either a successful run or
// a structured injected-fault error, and fails the test on anything else.
// It returns the RunResponse for 200s and a zero value otherwise.
func wellFormedRun(t *testing.T, status int, body []byte) (RunResponse, bool) {
	t.Helper()
	switch status {
	case http.StatusOK:
		return decode[RunResponse](t, body), true
	case http.StatusInternalServerError:
		eb := decode[errorBody](t, body)
		if !strings.Contains(eb.Error, "injected fault") {
			t.Errorf("500 without an injected-fault error: %s", body)
		}
		if eb.Panic {
			t.Errorf("injected fault misreported as a panic: %s", body)
		}
		return RunResponse{}, false
	default:
		t.Errorf("status %d is not in the fault's well-formed set: %s", status, body)
		return RunResponse{}, false
	}
}

// TestChaosSmokeCompileFault injects parse-phase failures and asserts the
// service degrades to clean 500s, never caching a poisoned entry.
func TestChaosSmokeCompileFault(t *testing.T) {
	fault.Install(fault.NewRegistry(7).Enable(fault.CompileParse, 0.5))
	t.Cleanup(func() { fault.Install(nil) })
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})

	oks, fails := 0, 0
	for i := 0; i < 8; i++ {
		n := 8 + i // distinct sources so every request exercises the compiler
		status, body := postJSONNoFatal(ts.URL+"/run", RunRequest{
			CompileRequest: CompileRequest{Source: workload.AllocHeavySrc(n)},
			Capacity:       intp(40),
		})
		if rr, ok := wellFormedRun(t, status, body); ok {
			oks++
			if rr.Value != chaosWant(n) {
				t.Errorf("build %d = %d, want %d", n, rr.Value, chaosWant(n))
			}
		} else {
			fails++
		}
	}
	if oks == 0 || fails == 0 {
		t.Errorf("8 draws at prob 0.5 produced %d successes / %d injected failures; fault point seems miswired", oks, fails)
	}

	// With the registry gone the same server compiles everything again.
	fault.Install(nil)
	resp, body := postJSON(t, ts.URL+"/run", RunRequest{
		CompileRequest: CompileRequest{Source: workload.AllocHeavySrc(9)},
		Capacity:       intp(40),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-chaos run: status %d: %s", resp.StatusCode, body)
	}
}

// TestChaosSmokeMachineStepFault injects env-machine step errors mid-run.
func TestChaosSmokeMachineStepFault(t *testing.T) {
	fault.Install(fault.NewRegistry(3).Enable(fault.MachineStep, 0.0005))
	t.Cleanup(func() { fault.Install(nil) })
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})

	oks, fails := 0, 0
	for i := 0; i < 6; i++ {
		status, body := postJSONNoFatal(ts.URL+"/run", RunRequest{
			CompileRequest: CompileRequest{Source: allocHeavy, Collector: "forwarding"},
			Capacity:       intp(40),
		})
		if rr, ok := wellFormedRun(t, status, body); ok {
			oks++
			if rr.Value != chaosWant(30) {
				t.Errorf("value %d, want %d", rr.Value, chaosWant(30))
			}
		} else {
			fails++
		}
	}
	if oks+fails != 6 {
		t.Fatalf("lost responses: %d ok + %d failed of 6", oks, fails)
	}
}

// TestChaosSmokeCorruptionCoChecked corrupts the env machine's heap under
// forced co-checking: the oracle must win every time.
func TestChaosSmokeCorruptionCoChecked(t *testing.T) {
	fault.Install(fault.NewRegistry(11).Enable(fault.HeapCorrupt, 0.5))
	t.Cleanup(func() { fault.Install(nil) })
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})

	for i := 0; i < 4; i++ {
		n := 20 + i // distinct programs: a tripped breaker must not mask later draws
		status, body := postJSONNoFatal(ts.URL+"/run", RunRequest{
			CompileRequest: CompileRequest{Source: workload.AllocHeavySrc(n)},
			Capacity:       intp(40),
			CoCheck:        true,
		})
		rr, ok := wellFormedRun(t, status, body)
		if !ok {
			t.Fatalf("co-checked run failed outright: %d %s", status, body)
		}
		if rr.Value != chaosWant(n) {
			t.Errorf("build %d = %d under corruption, want the oracle's %d", n, rr.Value, chaosWant(n))
		}
	}
	if s.metrics.CoCheckDivergences.Load() == 0 {
		t.Error("four corrupted co-checked runs produced no divergence; corruption point seems miswired")
	}
}

// TestChaosSmokeWorkerPanic asserts a panicking worker is contained: a
// structured 500, a ticked counter, and a pool that keeps serving.
func TestChaosSmokeWorkerPanic(t *testing.T) {
	fault.Install(fault.NewRegistry(1).Enable(fault.WorkerPanic, 1))
	t.Cleanup(func() { fault.Install(nil) })
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})

	resp, body := postJSON(t, ts.URL+"/run", RunRequest{
		CompileRequest: CompileRequest{Source: allocHeavy},
		Capacity:       intp(40),
	})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d (%s), want 500", resp.StatusCode, body)
	}
	if eb := decode[errorBody](t, body); !eb.Panic {
		t.Errorf("panic 500 not marked panic: %s", body)
	}
	if got := s.metrics.Panics.Load(); got != 1 {
		t.Errorf("panics counter = %d, want 1", got)
	}

	fault.Install(nil)
	resp, body = postJSON(t, ts.URL+"/run", RunRequest{
		CompileRequest: CompileRequest{Source: allocHeavy},
		Capacity:       intp(40),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pool did not survive the panic: status %d: %s", resp.StatusCode, body)
	}
}

// TestChaosSmokeLatencyAndStall injects worker-level and per-step latency;
// with no watchdog configured both only slow the run down.
func TestChaosSmokeLatencyAndStall(t *testing.T) {
	fault.Install(fault.NewRegistry(5).
		EnableDelay(fault.WorkerLatency, 1, time.Millisecond).
		EnableDelay(fault.MachineStall, 0.002, time.Millisecond))
	t.Cleanup(func() { fault.Install(nil) })
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})

	resp, body := postJSON(t, ts.URL+"/run", RunRequest{
		CompileRequest: CompileRequest{Source: allocHeavy, Collector: "generational"},
		Capacity:       intp(40),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s), want a slow 200", resp.StatusCode, body)
	}
	if rr := decode[RunResponse](t, body); rr.Value != chaosWant(30) {
		t.Errorf("value %d, want %d", rr.Value, chaosWant(30))
	}
}

// TestChaosSmokeEvictionStorm fires the cache-eviction storm on every
// compile and asserts the cache stays coherent and the service correct.
func TestChaosSmokeEvictionStorm(t *testing.T) {
	fault.Install(fault.NewRegistry(2).Enable(fault.CacheEvict, 1))
	t.Cleanup(func() { fault.Install(nil) })
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 4})

	for i := 0; i < 6; i++ {
		n := 10 + i
		status, body := postJSONNoFatal(ts.URL+"/run", RunRequest{
			CompileRequest: CompileRequest{Source: workload.AllocHeavySrc(n)},
			Capacity:       intp(40),
		})
		if status != http.StatusOK {
			t.Fatalf("run %d under storms: status %d: %s", i, status, body)
		}
		if rr := decode[RunResponse](t, body); rr.Value != chaosWant(n) {
			t.Errorf("build %d = %d under storms, want %d", n, rr.Value, chaosWant(n))
		}
	}
	if err := s.cache.coherent(); err != nil {
		t.Errorf("cache incoherent after eviction storms: %v", err)
	}
}
