package obs_test

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"psgc"
	"psgc/internal/gclang"
	"psgc/internal/obs"
	"psgc/internal/regions"
	"psgc/internal/workload"
)

// TestProfilerIdentities runs collector-exercising programs (the
// allocation-heavy chain and E10's shared DAG) with the always-on profiler
// attached and pins the profile's exact totals to the machine's own
// counters — the same identities the Recorder tests pin, now for the cheap
// path.
func TestProfilerIdentities(t *testing.T) {
	srcs := []struct{ name, src string }{
		{"alloc-heavy", allocHeavy},
		{"shared-dag", workload.SharedDAGSrc(60)},
	}
	for _, col := range []psgc.Collector{psgc.Basic, psgc.Forwarding, psgc.Generational} {
		t.Run(col.String(), func(t *testing.T) {
			for _, src := range srcs {
				t.Run(src.name, func(t *testing.T) {
					profilerIdentities(t, col, src.src)
				})
			}
		})
	}
}

// profilerIdentities runs src under col at a capacity that forces
// collections and checks one profile against the machine counters.
func profilerIdentities(t *testing.T, col psgc.Collector, src string) {
	c, err := psgc.Compile(src, col)
	if err != nil {
		t.Fatal(err)
	}
	prof := c.Profiler()
	res, err := c.Run(psgc.RunOptions{Capacity: 24, Profiler: prof})
	if err != nil {
		t.Fatal(err)
	}
	if res.Collections == 0 {
		t.Fatal("capacity 24 should force collections")
	}
	rp := prof.Profile()

	if rp.Steps != res.Steps {
		t.Errorf("profile steps %d, machine says %d", rp.Steps, res.Steps)
	}
	codePuts := len(c.Prog.Code)
	if got, want := rp.Allocs+rp.Copies, res.Stats.Puts-codePuts; got != want {
		t.Errorf("allocs+copies = %d+%d = %d, puts minus code installs = %d",
			rp.Allocs, rp.Copies, got, want)
	}
	if rp.Forwards != res.Stats.Sets {
		t.Errorf("forwards %d, machine sets %d", rp.Forwards, res.Stats.Sets)
	}
	if rp.CellsFreed != res.Stats.CellsReclaimed {
		t.Errorf("cells freed %d, machine reclaimed %d", rp.CellsFreed, res.Stats.CellsReclaimed)
	}
	if rp.Collections != res.Collections {
		t.Errorf("%d collections profiled, machine counted %d", rp.Collections, res.Collections)
	}
	if rp.MaxLive != res.Stats.MaxLiveCells {
		t.Errorf("max live %d, machine says %d", rp.MaxLive, res.Stats.MaxLiveCells)
	}
	if rp.LiveAtEnd != res.LiveCells {
		t.Errorf("live at end %d, machine says %d", rp.LiveAtEnd, res.LiveCells)
	}
	if col == psgc.Generational && rp.Minor+rp.Major != rp.Collections {
		t.Errorf("minor %d + major %d != collections %d", rp.Minor, rp.Major, rp.Collections)
	}
	if rp.AllocWords < rp.Allocs {
		t.Errorf("alloc words %d below alloc count %d (every cell is ≥1 word)",
			rp.AllocWords, rp.Allocs)
	}

	wantSamples := rp.Collections
	if wantSamples > obs.ProfileReservoir {
		wantSamples = obs.ProfileReservoir
	}
	if len(rp.Samples) != wantSamples {
		t.Errorf("%d samples retained, want %d", len(rp.Samples), wantSamples)
	}
	var copies int
	for _, s := range rp.Samples {
		if s.StartStep > s.EndStep {
			t.Errorf("sample spans steps %d-%d", s.StartStep, s.EndStep)
		}
		if s.Entry == "" {
			t.Errorf("sample with empty entry: %+v", s)
		}
		copies += s.Copies
	}
	// With every collection retained, sample sums equal the totals.
	if rp.Collections <= obs.ProfileReservoir && copies != rp.Copies {
		t.Errorf("sample copies sum %d, profile total %d", copies, rp.Copies)
	}
	if pct := rp.SurvivalPct(); pct < 0 || pct > 100 {
		t.Errorf("survival %f%% out of range", pct)
	}
	if _, err := json.Marshal(rp); err != nil {
		t.Errorf("profile does not marshal: %v", err)
	}
}

// TestProfilerMatchesAcrossEngines attaches a profiler to each engine and
// requires identical profiles — the event streams are pinned identical by
// the differential suite, so the profiles must be too.
func TestProfilerMatchesAcrossEngines(t *testing.T) {
	c, err := psgc.Compile(allocHeavy, psgc.Generational)
	if err != nil {
		t.Fatal(err)
	}
	pe, ps := c.Profiler(), c.Profiler()
	if _, err := c.Run(psgc.RunOptions{Capacity: 24, Profiler: pe}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(psgc.RunOptions{Capacity: 24, Profiler: ps, Engine: psgc.EngineSubst}); err != nil {
		t.Fatal(err)
	}
	re, rs := pe.Profile(), ps.Profile()
	je, _ := json.Marshal(re)
	js, _ := json.Marshal(rs)
	if string(je) != string(js) {
		t.Fatalf("profiles diverged across engines:\nenv:   %s\nsubst: %s", je, js)
	}
}

// TestProfilerObserveAllocFree pins the profiler's per-event cost: folding
// a step event into the profile allocates nothing, which is what makes it
// safe to leave on for every request.
func TestProfilerObserveAllocFree(t *testing.T) {
	mem := regions.New[gclang.Value](64)
	nu := mem.NewRegion()
	addr, err := mem.Put(nu, gclang.Num{N: 7})
	if err != nil {
		t.Fatal(err)
	}
	prof := obs.NewProfiler(map[regions.Addr]string{{Region: regions.CD, Off: 0}: "gc"}, 3)
	events := []gclang.StepEvent{
		{Step: 1, Kind: gclang.StepNewRegion, Addr: regions.Addr{Region: nu}},
		{Step: 2, Kind: gclang.StepPut, Addr: addr, Words: 2},
		{Step: 3, Kind: gclang.StepCall, Addr: regions.Addr{Region: regions.CD, Off: 0}},
		{Step: 4, Kind: gclang.StepGet, Addr: addr},
		{Step: 5, Kind: gclang.StepPut, Addr: addr, Words: 1},
		{Step: 6, Kind: gclang.StepSet, Addr: addr},
		{Step: 7, Kind: gclang.StepCall, Addr: regions.Addr{Region: regions.CD, Off: 5}},
		{Step: 8, Kind: gclang.StepOnly},
		{Step: 9, Kind: gclang.StepHalt},
	}
	step := 0
	avg := testing.AllocsPerRun(200, func() {
		ev := events[step%len(events)]
		ev.Step = step + 1 // keep steps monotonic across rounds
		prof.ObserveEvent(mem, ev)
		step++
	})
	if avg != 0 {
		t.Fatalf("ObserveEvent allocates %.1f objects/event, want 0", avg)
	}
}

// TestProfileStoreEviction exercises the segmented LRU: admissions beyond
// capacity evict the probation tail, and a touched (protected) entry
// outlives untouched newer ones.
func TestProfileStoreEviction(t *testing.T) {
	s := obs.NewProfileStore(4)
	rp := obs.RunProfile{Steps: 10, Allocs: 5}
	for i := 0; i < 4; i++ {
		s.Update(fmt.Sprintf("h%d", i), "basic", rp)
	}
	if s.Len() != 4 {
		t.Fatalf("len %d, want 4", s.Len())
	}
	// Touch h0: promoted to protected.
	if _, ok := s.Lookup("h0"); !ok {
		t.Fatal("h0 missing before eviction")
	}
	// Two more admissions evict from the probation tail (h1, h2), never
	// the protected h0.
	s.Update("h4", "basic", rp)
	s.Update("h5", "basic", rp)
	if s.Len() != 4 {
		t.Fatalf("len %d after evictions, want 4", s.Len())
	}
	if s.Evictions() != 2 {
		t.Fatalf("evictions %d, want 2", s.Evictions())
	}
	if _, ok := s.Lookup("h0"); !ok {
		t.Error("protected h0 was evicted")
	}
	if _, ok := s.Lookup("h1"); ok {
		t.Error("probation-tail h1 survived eviction")
	}
	probation, protected := s.Segments()
	if probation+protected != 4 {
		t.Errorf("segments %d+%d, want 4 total", probation, protected)
	}

	// Aggregation across updates: two runs under two collectors.
	s.Update("h0", "forwarding", rp)
	sum, ok := s.Lookup("h0")
	if !ok {
		t.Fatal("h0 lost after update")
	}
	if sum.Runs != 2 || len(sum.Collectors) != 2 {
		t.Fatalf("h0 summary: %d runs, %d collectors; want 2 and 2", sum.Runs, len(sum.Collectors))
	}
	if sum.Collectors[0].Collector != "basic" || sum.Collectors[1].Collector != "forwarding" {
		t.Fatalf("collectors not sorted: %+v", sum.Collectors)
	}
	if sum.Collectors[0].Steps != 10 || sum.Collectors[0].Allocs != 5 {
		t.Fatalf("basic aggregate drifted: %+v", sum.Collectors[0])
	}
}

// TestProfileStoreDecision pins the healthz exposure path: a recorded
// decision rides along in lookups and snapshots.
func TestProfileStoreDecision(t *testing.T) {
	s := obs.NewProfileStore(8)
	s.Update("h", "basic", obs.RunProfile{Steps: 1})
	s.SetDecision("h", map[string]string{"collector": "forwarding"})
	sum, ok := s.Lookup("h")
	if !ok || sum.Decision == nil {
		t.Fatalf("decision missing from lookup: %+v ok=%v", sum, ok)
	}
	snaps := s.Snapshot(10)
	if len(snaps) != 1 || snaps[0].Decision == nil {
		t.Fatalf("decision missing from snapshot: %+v", snaps)
	}
	// A decision for an evicted/unknown hash is dropped, not admitted.
	s.SetDecision("ghost", "x")
	if s.Len() != 1 {
		t.Fatalf("SetDecision admitted a ghost entry: len %d", s.Len())
	}
}

// TestProfileStoreConcurrent hammers one store from many goroutines; run
// under -race this pins the locking discipline.
func TestProfileStoreConcurrent(t *testing.T) {
	s := obs.NewProfileStore(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				hash := fmt.Sprintf("h%d", (g*7+i)%24)
				s.Update(hash, "basic", obs.RunProfile{Steps: i, Allocs: 1})
				if i%3 == 0 {
					s.Lookup(hash)
				}
				if i%5 == 0 {
					s.SetDecision(hash, g)
				}
				if i%17 == 0 {
					s.Snapshot(8)
					s.Len()
					s.Evictions()
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() > 16 {
		t.Fatalf("store over capacity: %d", s.Len())
	}
}
