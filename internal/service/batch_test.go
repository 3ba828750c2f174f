package service

import (
	"net/http"
	"testing"
	"time"

	"psgc/internal/fault"
	"psgc/internal/workload"
)

// TestBatchRunsInOrder drives a mixed batch and checks every item lands in
// input order with the result /run would have produced.
func TestBatchRunsInOrder(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 16})

	items := []RunRequest{
		{CompileRequest: CompileRequest{Source: workload.AllocHeavySrc(10), Collector: "basic"}},
		{CompileRequest: CompileRequest{Source: workload.AllocHeavySrc(20), Collector: "forwarding"}},
		{CompileRequest: CompileRequest{Source: workload.AllocHeavySrc(30), Collector: "generational"}},
		{CompileRequest: CompileRequest{Source: workload.AllocHeavySrc(15)}, CoCheck: true},
	}
	resp, body := postJSON(t, ts.URL+"/batch", BatchRequest{Items: items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
	}
	br := decode[BatchResponse](t, body)
	if br.Completed != len(items) || br.Failed != 0 || len(br.Items) != len(items) {
		t.Fatalf("batch outcome: completed=%d failed=%d items=%d, want %d/0/%d",
			br.Completed, br.Failed, len(br.Items), len(items), len(items))
	}
	wants := []int{chaosWant(10), chaosWant(20), chaosWant(30), chaosWant(15)}
	for i, it := range br.Items {
		if it.Status != http.StatusOK || it.Run == nil {
			t.Fatalf("item %d: status %d run=%v error=%+v", i, it.Status, it.Run, it.Error)
		}
		if it.Run.Value != wants[i] {
			t.Errorf("item %d: value %d, want %d", i, it.Run.Value, wants[i])
		}
	}
	if it := br.Items[3].Run; !it.CoChecked || it.Diverged || it.Engine != "env" {
		t.Errorf("item 3 = cochecked %v diverged %v engine %q, want a clean co-checked env run",
			it.CoChecked, it.Diverged, it.Engine)
	}
	if got := s.metrics.BatchRequests.Load(); got != 1 {
		t.Errorf("batch request counter = %d, want 1", got)
	}
	if got := s.metrics.BatchItems.Load(); got != int64(len(items)) {
		t.Errorf("batch item counter = %d, want %d", got, len(items))
	}
}

// TestBatchItemValidation checks per-item failures (bad collector, bad
// policy, stream inside a batch) are isolated 400s while valid siblings
// still run.
func TestBatchItemValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})

	items := []RunRequest{
		{CompileRequest: CompileRequest{Source: "1 + 2", Collector: "marksweep"}},
		{CompileRequest: CompileRequest{Source: "1 + 2"}},
		{CompileRequest: CompileRequest{Source: "1 + 2"}, Stream: true},
		{CompileRequest: CompileRequest{Source: "1 + 2"}, Policy: "quantum"},
	}
	resp, body := postJSON(t, ts.URL+"/batch", BatchRequest{Items: items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
	}
	br := decode[BatchResponse](t, body)
	if br.Completed != 1 || br.Failed != 3 {
		t.Fatalf("completed=%d failed=%d, want 1/3: %s", br.Completed, br.Failed, body)
	}
	for _, i := range []int{0, 2, 3} {
		if br.Items[i].Status != http.StatusBadRequest || br.Items[i].Error == nil {
			t.Errorf("item %d: status %d error=%+v, want isolated 400", i, br.Items[i].Status, br.Items[i].Error)
		}
	}
	if br.Items[1].Status != http.StatusOK || br.Items[1].Run == nil || br.Items[1].Run.Value != 3 {
		t.Errorf("valid sibling did not run: %+v", br.Items[1])
	}
}

// TestBatchLimits checks the envelope validation: no items and too many
// items are whole-batch 400s.
func TestBatchLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, MaxBatchItems: 2})

	resp, body := postJSON(t, ts.URL+"/batch", BatchRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d (%s), want 400", resp.StatusCode, body)
	}
	three := BatchRequest{Items: []RunRequest{
		{CompileRequest: CompileRequest{Source: "1"}},
		{CompileRequest: CompileRequest{Source: "2"}},
		{CompileRequest: CompileRequest{Source: "3"}},
	}}
	resp, body = postJSON(t, ts.URL+"/batch", three)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d (%s), want 400", resp.StatusCode, body)
	}
}

// TestChaosBatchWorkerPanicIsolation injects a worker panic that (under
// the seeded registry, single worker, one Bernoulli draw per job) fires on
// exactly the second item, and checks the blast radius is that item alone:
// its siblings complete, the batch is well-formed, the pool survives.
func TestChaosBatchWorkerPanicIsolation(t *testing.T) {
	// Seed 55 at p=0.5 draws [no, fire, no, no] — item 1 panics.
	fault.Install(fault.NewRegistry(55).Enable(fault.WorkerPanic, 0.5))
	defer fault.Install(nil)

	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	items := []RunRequest{
		{CompileRequest: CompileRequest{Source: workload.AllocHeavySrc(10)}},
		{CompileRequest: CompileRequest{Source: workload.AllocHeavySrc(20)}},
		{CompileRequest: CompileRequest{Source: workload.AllocHeavySrc(30)}},
		{CompileRequest: CompileRequest{Source: workload.AllocHeavySrc(40)}},
	}
	resp, body := postJSON(t, ts.URL+"/batch", BatchRequest{Items: items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
	}
	br := decode[BatchResponse](t, body)
	if br.Completed != 3 || br.Failed != 1 {
		t.Fatalf("completed=%d failed=%d, want 3/1: %s", br.Completed, br.Failed, body)
	}
	bad := br.Items[1]
	if bad.Status != http.StatusInternalServerError || bad.Error == nil || !bad.Error.Panic {
		t.Fatalf("panicked item: %+v, want a structured panic 500", bad)
	}
	for _, i := range []int{0, 2, 3} {
		it := br.Items[i]
		if it.Status != http.StatusOK || it.Run == nil {
			t.Errorf("item %d caught the blast: status %d error=%+v", i, it.Status, it.Error)
		}
	}
	if got := s.metrics.Panics.Load(); got != 1 {
		t.Errorf("panic counter = %d, want 1", got)
	}

	// The worker survived the panic: the same batch runs clean once the
	// fault is gone.
	fault.Install(nil)
	resp, body = postJSON(t, ts.URL+"/batch", BatchRequest{Items: items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-chaos batch: status %d: %s", resp.StatusCode, body)
	}
	if br := decode[BatchResponse](t, body); br.Failed != 0 {
		t.Errorf("post-chaos batch still failing: %s", body)
	}
}

// TestChaosBatchWatchdogStallIsolation stalls every machine step by 1ms;
// only the long item accumulates past the watchdog budget, so it alone is
// cut to a 504 with well-formed partial statistics while its short
// siblings finish normally.
func TestChaosBatchWatchdogStallIsolation(t *testing.T) {
	fault.Install(fault.NewRegistry(1).EnableDelay(fault.MachineStall, 1, time.Millisecond))
	defer fault.Install(nil)

	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, WatchdogMs: 150})
	items := []RunRequest{
		{CompileRequest: CompileRequest{Source: "1 + 2"}},
		{CompileRequest: CompileRequest{Source: allocHeavy}, Capacity: intp(40), ProgressSteps: 20},
		{CompileRequest: CompileRequest{Source: "2 + 3"}},
	}
	resp, body := postJSON(t, ts.URL+"/batch", BatchRequest{Items: items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
	}
	br := decode[BatchResponse](t, body)
	if br.Completed != 2 || br.Failed != 1 {
		t.Fatalf("completed=%d failed=%d, want 2/1: %s", br.Completed, br.Failed, body)
	}
	stalled := br.Items[1]
	if stalled.Status != http.StatusGatewayTimeout || stalled.Error == nil {
		t.Fatalf("stalled item: %+v, want a watchdog 504", stalled)
	}
	if stalled.Error.Partial == nil || stalled.Error.Partial.Steps <= 0 {
		t.Errorf("watchdog 504 without well-formed partial stats: %+v", stalled.Error)
	}
	for _, i := range []int{0, 2} {
		if br.Items[i].Status != http.StatusOK || br.Items[i].Run == nil {
			t.Errorf("short item %d caught the stall: %+v", i, br.Items[i])
		}
	}
	if got := s.metrics.WatchdogStalls.Load(); got != 1 {
		t.Errorf("watchdog stall counter = %d, want 1", got)
	}
}
