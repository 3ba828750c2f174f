package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"psgc"
	"psgc/internal/regions"
	"psgc/internal/service"
	"psgc/internal/workload"
)

func TestSameSeedSameInputs(t *testing.T) {
	for name, progs := range map[string]func(int64) []*program{
		"gc-heavy": gcHeavyPrograms, "mutator-heavy": mutatorHeavyPrograms,
	} {
		if a, b := progs(7), progs(7); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 drew different programs on two calls", name)
		}
		if reflect.DeepEqual(progs(7), progs(8)) {
			t.Errorf("%s: seeds 7 and 8 drew the same programs", name)
		}
	}
	if a, b := serveSchedule(7, 5), serveSchedule(7, 5); !reflect.DeepEqual(a, b) {
		t.Error("serve-mix: seed 7 drew different schedules on two calls")
	}
	if a, c := serveSchedule(7, 5), serveSchedule(8, 5); reflect.DeepEqual(a, c) {
		t.Error("serve-mix: seeds 7 and 8 drew the same schedule")
	}
}

func TestServeScheduleShape(t *testing.T) {
	const seconds = 10
	sc := serveSchedule(3, seconds)
	perStep := make([]int, len(rateSteps))
	seen := map[string]bool{}
	for _, h := range sc.hot {
		seen[h.Src] = true
	}
	// checkMisses checks that every miss is new and that the misses of one
	// loop are stratified by source length and by collector.
	checkMisses := func(loop string, reqs []request) {
		misses := 0
		perStratum := map[int]map[psgc.Collector]int{}
		for _, q := range reqs {
			if !q.Miss {
				continue
			}
			misses++
			if seen[q.Prog.Src] {
				t.Errorf("%s: miss %s repeats a hot program or an earlier miss", loop, q.Prog.Name)
			}
			seen[q.Prog.Src] = true
			s := sort.SearchInts(missStrata, len(q.Prog.Src))
			if perStratum[s] == nil {
				perStratum[s] = map[psgc.Collector]int{}
			}
			perStratum[s][q.Prog.Col]++
		}
		if want := len(reqs) / missOneIn; misses < want-len(rateSteps) || misses > want {
			t.Errorf("%s: %d misses in %d requests, want one in %d", loop, misses, len(reqs), missOneIn)
		}
		for s := range missStrata {
			total := 0
			for _, col := range collectors {
				total += perStratum[s][col]
			}
			if q := misses / len(missStrata); total < q || total > q+1 {
				t.Errorf("%s: stratum %d has %d misses, want %d or %d", loop, s, total, q, q+1)
			}
			for _, col := range collectors {
				if n := perStratum[s][col]; 3*n < total-2 || 3*n > total+2 {
					t.Errorf("%s: stratum %d has %d of %d misses under %s", loop, s, n, total, col)
				}
			}
		}
	}
	if want := int(closedGroupsPerSecond*closedShare*seconds) * missOneIn; len(sc.sequence) != want {
		t.Errorf("the closed loop has %d requests, want %d", len(sc.sequence), want)
	}
	checkMisses("closed loop", sc.sequence)
	// The first block of misses holds one of every (stratum, collector).
	block, n := map[[2]int]bool{}, 0
	for _, q := range sc.sequence {
		if q.Miss && n < len(missStrata)*len(collectors) {
			block[[2]int{sort.SearchInts(missStrata, len(q.Prog.Src)), int(q.Prog.Col)}] = true
			n++
		}
	}
	if len(block) != len(missStrata)*len(collectors) {
		t.Errorf("the closed loop's first block of misses covers %d (stratum, collector) pairs, want %d",
			len(block), len(missStrata)*len(collectors))
	}
	var open []request
	for i, a := range sc.arrivals {
		perStep[a.Step]++
		open = append(open, a.request)
		if i > 0 && a.Due < sc.arrivals[i-1].Due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
	openSeconds := (1 - closedShare) * seconds
	for i, st := range rateSteps {
		if want := int(st.RPS * st.Share * openSeconds); perStep[i] != want {
			t.Errorf("step %s has %d arrivals, want %d", st.Name, perStep[i], want)
		}
	}
	checkMisses("open loop", open)
}

func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !valid.MatchString(d.name) {
			t.Errorf("metric name %q is not made of [A-Za-z0-9_.-]", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %s is declared twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestMetricsMatchBenchmarkJSON keeps the declared metrics and the
// repository's BENCHMARK.json in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		declared []metricDef
		listed   []entry
	}{{endToEnd, spec.EndToEnd}, {perLayer, spec.PerLayer}} {
		if len(c.declared) != len(c.listed) {
			t.Fatalf("%d metrics declared, %d in BENCHMARK.json", len(c.declared), len(c.listed))
		}
		for i, d := range c.declared {
			if l := c.listed[i]; l.Name != d.name || l.Unit != d.unit {
				t.Errorf("metric %d: declared %s (%s), BENCHMARK.json has %s (%s)", i, d.name, d.unit, l.Name, l.Unit)
			}
		}
	}
}

func TestIdenticalFailsOnMismatch(t *testing.T) {
	base := psgc.Result{Value: 7, Steps: 100, Collections: 2, LiveCells: 5,
		Stats: regions.Stats{Puts: 40, Gets: 30, Sets: 1, RegionsCreated: 4, RegionsReclaimed: 2, CellsReclaimed: 20, MaxLiveCells: 12}}
	if err := identical(base, base); err != nil {
		t.Fatalf("identical results reported as different: %v", err)
	}
	for name, mutate := range map[string]func(*psgc.Result){
		"value":       func(r *psgc.Result) { r.Value++ },
		"steps":       func(r *psgc.Result) { r.Steps++ },
		"collections": func(r *psgc.Result) { r.Collections++ },
		"live cells":  func(r *psgc.Result) { r.LiveCells++ },
		"puts":        func(r *psgc.Result) { r.Stats.Puts++ },
		"gets":        func(r *psgc.Result) { r.Stats.Gets++ },
		"sets":        func(r *psgc.Result) { r.Stats.Sets++ },
		"created":     func(r *psgc.Result) { r.Stats.RegionsCreated++ },
		"reclaimed":   func(r *psgc.Result) { r.Stats.RegionsReclaimed++ },
		"cells":       func(r *psgc.Result) { r.Stats.CellsReclaimed++ },
		"max live":    func(r *psgc.Result) { r.Stats.MaxLiveCells++ },
	} {
		other := base
		mutate(&other)
		if err := identical(base, other); err == nil {
			t.Errorf("a result differing in %s passed the identity check", name)
		}
	}
}

func TestSameStatsFailsOnMismatch(t *testing.T) {
	res := psgc.Result{Value: 7, Steps: 100, Collections: 2, LiveCells: 5,
		Stats: regions.Stats{Puts: 40, RegionsReclaimed: 2, CellsReclaimed: 20, MaxLiveCells: 12}}
	served := service.RunResponse{Value: 7, Stats: service.RunStats{Steps: 100, Collections: 2, Puts: 40,
		RegionsReclaimed: 2, CellsReclaimed: 20, MaxLiveCells: 12, LiveCells: 5}}
	if err := sameStats(served, res); err != nil {
		t.Fatalf("matching served run reported as different: %v", err)
	}
	served.Stats.CellsReclaimed++
	if err := sameStats(served, res); err == nil {
		t.Error("a served run differing in cells reclaimed passed the check")
	}
	served.Stats.CellsReclaimed--
	served.Value++
	if err := sameStats(served, res); err == nil {
		t.Error("a served run differing in value passed the check")
	}
}

func TestReconcile(t *testing.T) {
	ms := time.Millisecond
	if err := reconcile(100*ms, 60*ms, 35*ms); err != nil {
		t.Errorf("a 5%% gap failed to reconcile: %v", err)
	}
	if err := reconcile(100*ms, 50*ms, 30*ms); err == nil {
		t.Error("a 20% shortfall reconciled")
	}
	if err := reconcile(100*ms, 80*ms, 40*ms); err == nil {
		t.Error("a 20% excess reconciled")
	}
	if err := reconcile(0, 0, 0); err == nil {
		t.Error("a zero wall time reconciled")
	}
}

// TestCPUClockCountsWork checks that the process CPU clock, which every
// operation metric reads, advances by about the CPU time spent between
// two readings.
func TestCPUClockCountsWork(t *testing.T) {
	c0 := cpuTime(clockProcessCPU)
	for start := time.Now(); time.Since(start) < 50*time.Millisecond; {
	}
	if d := cpuTime(clockProcessCPU) - c0; d < 40*time.Millisecond {
		t.Errorf("50 ms of spinning advanced the process CPU clock by %v", d)
	}
	if mb, err := rssMB(); err != nil || mb <= 0 {
		t.Errorf("resident set %v MiB, error %v", mb, err)
	}
}

// TestRunsBriefly runs serve-mix untraced and traced, and a closed loop
// traced, for a second each: every value must match its reference and
// every declared metric must be reported.
func TestRunsBriefly(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a fleet")
	}
	for _, c := range []struct {
		workload string
		trace    int
	}{{"serve-mix", 0}, {"serve-mix", 1}, {"mutator-heavy", 1}} {
		rep, err := run(c.workload, 5, 1, c.trace, t.TempDir()+"/spans.json")
		if err != nil {
			t.Fatalf("%s trace %d: %v", c.workload, c.trace, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s trace %d: correct %v, %d of %d failed", c.workload, c.trace, rep.Correct, rep.Failed, rep.Attempted)
		}
		want := endToEnd
		if c.trace == 1 {
			want = perLayer
		}
		if len(rep.Metrics) != len(want) {
			t.Errorf("%s trace %d: %d metrics, want %d", c.workload, c.trace, len(rep.Metrics), len(want))
		}
	}
}

// TestTracedOpReproducesRun steps a collecting and a non-collecting run
// from outside and checks that the split covers every step.
func TestTracedOpReproducesRun(t *testing.T) {
	tally, err := newMachineTally()
	if err != nil {
		t.Fatal(err)
	}
	for _, capacity := range []int{0, gcCapacity} {
		for _, col := range collectors {
			p := &program{Name: "alloc", Src: workload.AllocHeavySrc(30), Col: col, Capacity: capacity}
			c, err := psgc.Compile(p.Src, p.Col)
			if err != nil {
				t.Fatal(err)
			}
			want, err := c.Run(psgc.RunOptions{Capacity: capacity})
			if err != nil {
				t.Fatal(err)
			}
			got, split, err := steppedRun(c, psgc.RunOptions{Capacity: capacity}, tally.code[col], nil, "", 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := identical(want, got); err != nil {
				t.Errorf("capacity %d, %s: %v", capacity, col, err)
			}
			if split.MutatorSteps+split.CollectorSteps != got.Steps {
				t.Errorf("capacity %d, %s: %d mutator + %d collector steps, run took %d",
					capacity, col, split.MutatorSteps, split.CollectorSteps, got.Steps)
			}
			if (capacity == 0) != (split.CollectorSteps == 0) {
				t.Errorf("capacity %d, %s: %d collector steps", capacity, col, split.CollectorSteps)
			}
			if len(split.Pauses) > got.Collections || (got.Collections > 0) != (len(split.Pauses) > 0) {
				t.Errorf("capacity %d, %s: %d pauses for %d collections", capacity, col, len(split.Pauses), got.Collections)
			}
			if _, err := tally.tracedOp(c, p, nil, ""); err != nil {
				t.Errorf("capacity %d, %s: %v", capacity, col, err)
			}
		}
	}
}
