//go:build chaos

package gate_test

// Chaos through the gate: the fault matrix fires inside in-process
// backends while traffic arrives via the gate's routing layer, with the
// policy alternating per request. The gate must
// stay a transparent proxy: well-formed statuses, correct values on 200s,
// and no gate-level error substituted for a backend's.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"psgc/internal/fault"
	"psgc/internal/gate"
	"psgc/internal/service"
	"psgc/internal/workload"
)

// TestGateChaosAlternatingPolicies drives mixed traffic through the gate
// under each fault point that must stay invisible at this layer,
// alternating ?policy= between static and adaptive.
func TestGateChaosAlternatingPolicies(t *testing.T) {
	points := []struct {
		name string
		reg  *fault.Registry
	}{
		{"worker.latency", fault.NewRegistry(201).EnableDelay(fault.WorkerLatency, 1, time.Millisecond)},
		{"machine.stall", fault.NewRegistry(202).EnableDelay(fault.MachineStall, 0.001, time.Millisecond)},
		{"cache.evict", fault.NewRegistry(203).Enable(fault.CacheEvict, 0.8)},
		{"policy.flip", fault.NewRegistry(204).Enable(fault.PolicyFlip, 1)},
	}
	policies := []string{"static", "adaptive"}
	collectors := []string{"basic", "forwarding", "generational"}

	for _, p := range points {
		t.Run(p.name, func(t *testing.T) {
			fault.Install(p.reg)
			t.Cleanup(func() { fault.Install(nil) })
			f := startFleet(t, 2, gate.Config{Seed: 7}, service.Config{Workers: 2, QueueDepth: 16})

			for i := 0; i < 12; i++ {
				n := 10 + i%8
				url := f.gateURL + "/run?policy=" + policies[(i/2)%2]
				resp, body := post(t, url, service.RunRequest{
					CompileRequest: service.CompileRequest{
						Source:    workload.AllocHeavySrc(n),
						Collector: collectors[i%3],
					},
				})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s i=%d: status %d: %s", p.name, i, resp.StatusCode, body)
				}
				var rr service.RunResponse
				if err := json.Unmarshal(body, &rr); err != nil {
					t.Fatalf("%s i=%d: unparseable 200: %s", p.name, i, body)
				}
				if rr.Value != wantValue(n) {
					t.Errorf("%s i=%d: value %d, want %d", p.name, i, rr.Value, wantValue(n))
				}
				if want := policies[(i/2)%2]; rr.Policy != want {
					t.Errorf("%s i=%d: policy %q, want %q through the gate", p.name, i, rr.Policy, want)
				}
			}
		})
	}
}

// TestGateChaosCheckpointMatrix is the PR-10 matrix: E1 traffic through
// the gate over 3 backends while machine.step, worker.panic, and
// checkpoint.corrupt fire — including a mid-matrix backend kill and a
// streamed run migrated off a draining node under the same fault. The
// envelope: no panic escapes the gate (every response is a well-formed
// 200/500, every stream ends in a terminal frame), failover preserves
// results (correct values on every 200 even after the kill), and the
// timeline identities hold on traced 200s.
func TestGateChaosCheckpointMatrix(t *testing.T) {
	points := []struct {
		name string
		reg  *fault.Registry
	}{
		{"machine.step", fault.NewRegistry(301).Enable(fault.MachineStep, 0.002)},
		{"worker.panic", fault.NewRegistry(302).Enable(fault.WorkerPanic, 0.3)},
		{"checkpoint.corrupt", fault.NewRegistry(303).Enable(fault.CheckpointCorrupt, 1)},
	}
	collectors := []string{"basic", "forwarding", "generational"}
	allowed := map[int]bool{http.StatusOK: true, http.StatusInternalServerError: true}

	for _, p := range points {
		t.Run(p.name, func(t *testing.T) {
			// Every point also slows the machine so the streamed run below
			// is still alive when its backend drains.
			fault.Install(p.reg.EnableDelay(fault.MachineStall, 0.05, 200*time.Microsecond))
			t.Cleanup(func() { fault.Install(nil) })
			f := startFleet(t, 3,
				gate.Config{Seed: 7, HealthEvery: 100 * time.Millisecond, RetryBaseMs: 1},
				service.Config{Workers: 2, QueueDepth: 32})

			capacity := 40
			for i := 0; i < 12; i++ {
				if i == 6 {
					// Failover mid-matrix: one backend dies outright.
					f.backends[0].kill()
				}
				n := 10 + i%8
				url := f.gateURL + "/run"
				traced := i%3 == 0
				if traced {
					url += "?trace=1"
				}
				resp, body := post(t, url, service.RunRequest{
					CompileRequest: service.CompileRequest{
						Source:    workload.AllocHeavySrc(n),
						Collector: collectors[i%3],
					},
					Capacity: &capacity,
				})
				shed := (resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable) &&
					resp.Header.Get("Retry-After") != ""
				if !allowed[resp.StatusCode] && !shed {
					t.Fatalf("%s i=%d: status %d outside the envelope: %s", p.name, i, resp.StatusCode, body)
				}
				if resp.StatusCode != http.StatusOK {
					continue
				}
				var rr service.RunResponse
				if err := json.Unmarshal(body, &rr); err != nil {
					t.Fatalf("%s i=%d: unparseable 200: %s", p.name, i, body)
				}
				if rr.Value != wantValue(n) {
					t.Errorf("%s i=%d: value %d, want %d", p.name, i, rr.Value, wantValue(n))
				}
				if traced {
					if rr.Trace == nil || rr.Trace.Timeline == nil {
						t.Fatalf("%s i=%d: traced 200 with no timeline", p.name, i)
					}
					tl := rr.Trace.Timeline
					if tl.Steps != rr.Stats.Steps {
						t.Errorf("%s i=%d: timeline steps %d vs stats %d", p.name, i, tl.Steps, rr.Stats.Steps)
					}
					if len(tl.Collections) != rr.Stats.Collections {
						t.Errorf("%s i=%d: %d spans for %d collections", p.name, i, len(tl.Collections), rr.Stats.Collections)
					}
				}
			}

			// A streamed run under the same fault, migrated off a draining
			// survivor. The stream must end in a terminal frame whatever the
			// fault does: a migrated (or fault-500d) run is fine, a hung or
			// truncated stream is not.
			payload, _ := json.Marshal(service.RunRequest{
				CompileRequest: service.CompileRequest{Source: workload.AllocHeavySrc(30), Collector: "forwarding"},
				Capacity:       &capacity,
				ProgressSteps:  100,
			})
			stream, err := http.Post(f.gateURL+"/run?stream=1", "application/json", bytes.NewReader(payload))
			if err != nil {
				t.Fatal(err)
			}
			defer stream.Body.Close()
			if stream.StatusCode != http.StatusOK {
				t.Fatalf("%s: stream status %d", p.name, stream.StatusCode)
			}
			sc := bufio.NewScanner(stream.Body)
			sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
			var serving *backendProc
			terminal := ""
			var terminalData []byte
			for {
				name, data, ok := readEvent(sc)
				if !ok {
					break
				}
				terminal, terminalData = name, data
				if serving == nil && name == "progress" {
					// First boundary reached: find the serving survivor and
					// drain it so the migration machinery runs under the fault.
					for _, b := range f.backends[1:] {
						if b.svc.Metrics().StreamRequests.Load() == 1 {
							serving = b
						}
					}
					if serving != nil {
						go func(b *backendProc) {
							ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
							defer cancel()
							b.svc.Shutdown(ctx)
						}(serving)
					}
				}
			}
			switch terminal {
			case "result":
				var rr service.RunResponse
				if err := json.Unmarshal(terminalData, &rr); err != nil {
					t.Fatalf("%s: unparseable stream result: %s", p.name, terminalData)
				}
				if rr.Value != wantValue(30) {
					t.Errorf("%s: streamed value %d, want %d", p.name, rr.Value, wantValue(30))
				}
			case "error", "checkpointed":
				// Well-formed failure or an unmigrated pause: inside the
				// envelope. checkpoint.corrupt in particular must land here —
				// every resume candidate rejects the tampered blob.
			default:
				t.Fatalf("%s: stream ended without a terminal frame (last %q: %s)", p.name, terminal, terminalData)
			}
			if p.reg.Fired(fault.CheckpointCorrupt) > 0 {
				if terminal != "error" {
					t.Errorf("checkpoint.corrupt stream terminal %q, want error (no resume may accept a tampered blob)", terminal)
				}
				var rejected int64
				for _, b := range f.backends {
					rejected += b.svc.Metrics().ResumesRejected.Load()
				}
				if rejected == 0 {
					t.Error("checkpoint.corrupt: no backend rejected the tampered blob")
				}
				if f.gate.Metrics().MigrationFailures.Load() == 0 {
					t.Error("checkpoint.corrupt: gate reports no migration failure")
				}
			}

			// The fleet survives the whole matrix: faults off, one clean run.
			fault.Install(nil)
			resp, body := post(t, f.gateURL+"/run", service.RunRequest{
				CompileRequest: service.CompileRequest{Source: workload.AllocHeavySrc(15), Collector: "forwarding"},
				Capacity:       &capacity,
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: fleet did not survive the matrix: %d (%s)", p.name, resp.StatusCode, body)
			}
			var rr service.RunResponse
			if err := json.Unmarshal(body, &rr); err != nil || rr.Value != wantValue(15) {
				t.Errorf("%s: post-matrix run wrong: %s", p.name, body)
			}
		})
	}
}
