// Command psgc-bench regenerates the per-experiment tables of
// EXPERIMENTS.md (E1–E10): the behavioural claims of "Principled
// Scavenging" measured on this reproduction. Run with no arguments for
// every experiment, or pass experiment ids (e1 … e10) to select:
//
//	go run ./cmd/psgc-bench e3 e10
//
// Experiments run in process on the default (environment) engine. An
// experiment that checks a claim — e7's per-step soundness, e10's
// profiling-overhead and adaptive-policy bounds — exits non-zero when the
// claim fails. End-to-end cost through the service and the gate is
// measured by the benchmark under benchmark/ instead.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"psgc"
	"psgc/internal/baseline"
	"psgc/internal/gclang"
	"psgc/internal/gen"
	"psgc/internal/obs"
	"psgc/internal/policy"
	"psgc/internal/regions"
	"psgc/internal/source"
	"psgc/internal/tags"
	"psgc/internal/workload"
)

var experiments = []struct {
	id   string
	name string
	run  func()
}{
	{"e1", "basic collection across capacities", e1},
	{"e2", "continuation-region bound (§6.1)", e2},
	{"e3", "sharing: basic vs forwarding (§7)", e3},
	{"e4", "forwarding space overhead (§7 fn.1)", e4},
	{"e5", "generational minor collections (§8)", e5},
	{"e6", "decidability: normalization & checking cost (§6.5.1)", e6},
	{"e7", "empirical soundness counts", e7},
	{"e8", "code size: ITA library vs monomorphization (§2.1)", e8},
	{"e9", "mutator overhead of the region discipline (Fig. 3)", e9},
	{"e10", "adaptive vs static policy, always-on profiling cost (§4.1)", e10},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("psgc-bench: ")
	want := map[string]bool{}
	for _, e := range experiments {
		want[e.id] = len(os.Args) == 1
	}
	for _, a := range os.Args[1:] {
		if _, ok := want[a]; !ok {
			log.Fatalf("unknown experiment %q (want e1 … e10)", a)
		}
		want[a] = true
	}
	for _, e := range experiments {
		if !want[e.id] {
			continue
		}
		fmt.Printf("== %s: %s ==\n", e.id, e.name)
		e.run()
		fmt.Println()
	}
}

var allocHeavy = workload.AllocHeavySrc(60)

// churnSrc is the E5 generational workload: a long-lived tower survives a
// churn loop of short-lived junk allocations.
func churnSrc(churn int) string {
	return fmt.Sprintf(`
fun tower (n : int) : int * (int * (int * int)) =
  (n, (n + 1, (n + 2, n + 3)))
fun churn (state : int * (int * (int * (int * int)))) : int =
  let n = fst state in
  let keep = snd state in
  if0 n then fst keep + fst (snd (snd keep))
  else let junk = (n, (n, n)) in churn (n - 1, keep)
do churn (%d, tower 10)
`, churn)
}

// e9Progs are the Fig. 3 mutator-overhead programs.
var e9Progs = []struct {
	name string
	src  string
}{
	{"arith", "fun f (n : int) : int = if0 n then 0 else n + f (n - 1)\ndo f 40"},
	{"pairs", allocHeavy},
	{"closures", "fun twice (f : int -> int) : int -> int = fn (x : int) => f (f x)\ndo (twice (fn (y : int) => y + 3)) 10"},
}

// e1: the basic collector keeps an allocation-heavy program's result
// intact while collecting, across capacities.
func e1() {
	want, err := psgc.Interpret(allocHeavy)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("capacity | collector    | result ok | collections | puts | reclaimed | max live")
	for _, capacity := range []int{16, 32, 64, 128} {
		for _, col := range []psgc.Collector{psgc.Basic, psgc.Forwarding, psgc.Generational} {
			c, err := psgc.Compile(allocHeavy, col)
			if err != nil {
				log.Fatal(err)
			}
			res, err := c.Run(psgc.RunOptions{Capacity: capacity})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%8d | %-12s | %9v | %11d | %4d | %9d | %8d\n",
				capacity, col, res.Value == want, res.Collections,
				res.Stats.Puts, res.Stats.CellsReclaimed, res.Stats.MaxLiveCells)
		}
	}
}

// e2: the CPS'd collector's temporary continuation region stays linear in
// the to-space (§6.1 claims the bound; Fig. 12 realizes ≤ 2·copied+1).
func e2() {
	fmt.Println("heap cells | copied | peak continuations | ratio")
	for _, n := range []int{16, 64, 256, 1024, 2048} {
		c, err := workload.BuildCollectOnce(gclang.Base, workload.List, n)
		if err != nil {
			log.Fatal(err)
		}
		st, err := c.RunEnv(2_000_000_000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%10d | %6d | %18d | %.2f\n", n, st.Copied, st.MaxCont,
			float64(st.MaxCont)/float64(st.Copied))
	}
}

// e3: DAG sharing — the §7 headline table. The last column runs the
// untrusted Go copying collector with a host-side forwarding table over
// the same DAG: the count the λGC forwarding collector has to match.
func e3() {
	fmt.Println("depth | nodes | basic copies | forwarding copies | go-baseline (fwd) copies")
	for depth := 2; depth <= 10; depth += 2 {
		b, err := workload.BuildCollectOnce(gclang.Base, workload.DAG, depth)
		if err != nil {
			log.Fatal(err)
		}
		bs, err := b.RunEnv(2_000_000_000)
		if err != nil {
			log.Fatal(err)
		}
		f, err := workload.BuildCollectOnce(gclang.Forw, workload.DAG, depth)
		if err != nil {
			log.Fatal(err)
		}
		fs, err := f.RunEnv(2_000_000_000)
		if err != nil {
			log.Fatal(err)
		}
		mem := regions.New[gclang.Value](0)
		root, tag := goDAG(mem, depth)
		_, _, gs, err := baseline.CopyRoot(mem, tag, root, true)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%5d | %5d | %12d | %17d | %d\n",
			depth, depth+1, bs.Copied, fs.Copied, gs.Copied)
	}
}

// goDAG allocates workload.DAG's braided DAG of the given depth in mem:
// a leaf (1, 2), then depth nodes whose components are both the previous
// node. It returns the root and its tag.
func goDAG(mem *regions.Memory[gclang.Value], depth int) (gclang.Value, tags.Tag) {
	r := mem.NewRegion()
	a, _ := mem.Put(r, gclang.PairV{L: gclang.Num{N: 1}, R: gclang.Num{N: 2}})
	node, tag := gclang.Value(gclang.AddrV{Addr: a}), tags.Tag(tags.Prod{L: tags.Int{}, R: tags.Int{}})
	for i := 0; i < depth; i++ {
		a, _ = mem.Put(r, gclang.PairV{L: node, R: node})
		node, tag = gclang.AddrV{Addr: a}, tags.Prod{L: tag, R: tag}
	}
	return node, tag
}

// e4: space overhead of the paper's 1-bit scheme vs the Wang–Appel
// pair-per-object forwarding slot.
func e4() {
	fmt.Println("objects | 1-bit overhead (words) | paired overhead (words) | paper's saving")
	for _, n := range []int{64, 1024, 16384, 262144} {
		m := baseline.SpaceOverhead(n)
		fmt.Printf("%7d | %22d | %23d | %.0fx\n",
			m.Objects, m.TagBitsWords, m.PairedWords,
			float64(m.PairedWords)/float64(m.TagBitsWords))
	}
}

// e5: generational collection — total allocation falls as the long-lived
// fraction grows, because minor collections stop at the old generation.
func e5() {
	fmt.Println("churn | collector    | collections | total puts | reclaimed")
	for _, churn := range []int{40, 80, 160} {
		src := churnSrc(churn)
		for _, col := range []psgc.Collector{psgc.Basic, psgc.Generational} {
			c, err := psgc.Compile(src, col)
			if err != nil {
				log.Fatal(err)
			}
			res, err := c.Run(psgc.RunOptions{Capacity: 48})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%5d | %-12s | %11d | %10d | %9d\n",
				churn, col, res.Collections, res.Stats.Puts, res.Stats.CellsReclaimed)
		}
	}
}

// e6: tag normalization and whole-program typechecking stay fast as terms
// grow — the operational face of decidability (Props. 6.1, 6.2).
func e6() {
	fmt.Println("tag size | normalize time")
	for _, n := range []int{64, 256, 1024, 4096} {
		tag := tags.Tag(tags.Int{})
		for i := 1; i < n; i++ {
			tag = tags.Prod{L: tags.Int{}, R: tag}
		}
		// Wrap in β-redexes to give the normalizer work.
		for i := 0; i < 8; i++ {
			tag = tags.App{Fn: tags.Lam{Param: "u", Body: tags.Var{Name: "u"}}, Arg: tag}
		}
		start := time.Now()
		if _, err := tags.Normalize(tag); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8d | %s\n", n, time.Since(start))
	}
	fmt.Println("program size | compile+typecheck time")
	r := rand.New(rand.NewSource(42))
	for _, cfg := range []gen.Config{
		{MaxDepth: 3, MaxFuns: 2, Recursion: 3},
		{MaxDepth: 5, MaxFuns: 3, Recursion: 3},
		{MaxDepth: 7, MaxFuns: 4, Recursion: 3},
	} {
		p := gen.Program(r, cfg)
		start := time.Now()
		if _, err := psgc.CompileProgram(p, psgc.Basic); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%12d | %s\n", source.ProgramSize(p), time.Since(start))
	}
}

// e7: empirical soundness — random programs, per-step state re-checking.
func e7() {
	r := rand.New(rand.NewSource(7))
	cfg := gen.Config{MaxDepth: 4, MaxFuns: 2, Recursion: 3}
	fmt.Println("collector    | programs | states checked | violations")
	for _, col := range []psgc.Collector{psgc.Basic, psgc.Forwarding, psgc.Generational} {
		programs, states := 0, 0
		for i := 0; programs < 4 && i < 60; i++ {
			p := gen.Program(r, cfg)
			ev := source.Evaluator{Fuel: 30_000}
			if _, err := ev.RunInt(p); err != nil {
				continue
			}
			c, err := psgc.CompileProgram(p, col)
			if err != nil {
				log.Fatal(err)
			}
			res, err := c.Run(psgc.RunOptions{Capacity: 16, CheckEveryStep: true, Fuel: 2_000_000})
			if err != nil {
				log.Fatalf("%v: soundness violation: %v", col, err)
			}
			programs++
			states += res.Steps
		}
		fmt.Printf("%-12s | %8d | %14d | 0\n", col, programs, states)
	}
}

// e8: code size — the ITA collector is a constant-size library while
// monomorphization grows with the number of distinct types.
func e8() {
	r := rand.New(rand.NewSource(8))
	fmt.Println("program size | distinct types (≈ specialized copies) | ITA blocks")
	for _, cfg := range []gen.Config{
		{MaxDepth: 3, MaxFuns: 1, Recursion: 3},
		{MaxDepth: 4, MaxFuns: 2, Recursion: 3},
		{MaxDepth: 5, MaxFuns: 3, Recursion: 3},
		{MaxDepth: 6, MaxFuns: 4, Recursion: 3},
	} {
		p := gen.Program(r, cfg)
		c, err := psgc.CompileProgram(p, psgc.Basic)
		if err != nil {
			log.Fatal(err)
		}
		n := baseline.SpecializationCount(c.Clos)
		fmt.Printf("%12d | %38d | %d\n", source.ProgramSize(p), n, baseline.ITACollectorBlocks)
	}
}

// e9: the region discipline's mutator overhead — machine steps of the
// compiled λGC program (without any collection) versus the λCLOS
// reference machine.
func e9() {
	fmt.Println("program  | λGC steps | puts | gets")
	for _, p := range e9Progs {
		c, err := psgc.Compile(p.src, psgc.Basic)
		if err != nil {
			log.Fatal(err)
		}
		res, err := c.Run(psgc.RunOptions{Capacity: 0}) // no collections
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s | %9d | %4d | %4d\n", p.name, res.Steps, res.Stats.Puts, res.Stats.Gets)
	}
}

// profiledRun times one run with a fresh profiler attached and folds the
// profile/counter identity check into the measurement.
func profiledRun(c *psgc.Compiled, opts psgc.RunOptions, identitiesOK *bool) (psgc.Result, float64, error) {
	prof := c.Profiler()
	opts.Profiler = prof
	t0 := time.Now()
	res, err := c.Run(opts)
	if err != nil {
		return res, 0, err
	}
	ms := float64(time.Since(t0)) / float64(time.Millisecond)
	rp := prof.Profile()
	codePuts := len(c.Prog.Code)
	if rp.Steps != res.Steps ||
		rp.Collections != res.Collections ||
		rp.Allocs+rp.Copies != res.Stats.Puts-codePuts ||
		rp.Forwards != res.Stats.Sets ||
		rp.CellsFreed != res.Stats.CellsReclaimed {
		*identitiesOK = false
		fmt.Printf("PROFILE IDENTITY VIOLATION: profile %+v vs stats %+v\n", rp, res.Stats)
	}
	return res, ms, nil
}

// e10 measures two claims in process: the always-on profiler is cheap
// enough to leave on (interleaved profiled vs plain E1 reps, sampling
// overhead ≤ 1.02), and the adaptive policy's choice of collector and
// capacity matches or beats every static collector per workload
// (geomean of best-static-p50 / adaptive-p50 ≥ 0.95). Every profiled run
// must also agree exactly with the machine counters, every run must return
// the reference value, and one co-checked adaptive run per workload must
// match the oracle. Any failure is fatal, after the table is printed.
func e10() {
	const benchCapacity = 32
	identitiesOK, cocheckOK, resultsOK := true, true, true

	// Part 1: sampling overhead on E1. Plain and profiled runs interleave
	// so host-GC drift biases neither side; first round is warmup.
	c, err := psgc.Compile(allocHeavy, psgc.Basic)
	if err != nil {
		log.Fatal(err)
	}
	const overheadReps = 30
	var plain, profiled []float64
	for rep := 0; rep < overheadReps+1; rep++ {
		t0 := time.Now()
		if _, err := c.Run(psgc.RunOptions{Capacity: benchCapacity}); err != nil {
			log.Fatal(err)
		}
		plainMs := float64(time.Since(t0)) / float64(time.Millisecond)
		_, profMs, err := profiledRun(c, psgc.RunOptions{Capacity: benchCapacity}, &identitiesOK)
		if err != nil {
			log.Fatal(err)
		}
		if rep > 0 {
			plain = append(plain, plainMs)
			profiled = append(profiled, profMs)
		}
	}
	p50 := func(ts []float64) float64 {
		sort.Float64s(ts)
		return ts[len(ts)/2]
	}
	overhead := p50(profiled) / p50(plain)

	// Part 2: adaptive vs every static, per workload. The statics also
	// serve as the profile warm-up the decision reads, mirroring a service
	// node that has seen the program before.
	workloads := []struct {
		name string
		src  string
	}{
		{"alloc-heavy (build 60)", allocHeavy},
		{"shared-dag (churn 60)", workload.SharedDAGSrc(60)},
	}
	statics := []psgc.Collector{psgc.Basic, psgc.Forwarding, psgc.Generational}
	const policyReps = 11
	logSum := 0.0
	fmt.Printf("%-24s %-13s %-12s %5s %7s %7s\n", "workload", "variant", "collector", "cap", "colls", "p50 ms")
	for _, wl := range workloads {
		want, err := psgc.Interpret(wl.src)
		if err != nil {
			log.Fatal(err)
		}
		eng := policy.NewEngine(obs.NewProfileStore(4))
		compiled := map[string]*psgc.Compiled{}
		for _, col := range statics {
			cc, err := psgc.Compile(wl.src, col)
			if err != nil {
				log.Fatal(err)
			}
			compiled[col.String()] = cc
			// Warm the profile store (untimed).
			prof := cc.Profiler()
			if _, err := cc.Run(psgc.RunOptions{Capacity: benchCapacity, Profiler: prof}); err != nil {
				log.Fatal(err)
			}
			eng.Observe(wl.name, col.String(), prof.Profile())
		}
		d := eng.Decide(wl.name, psgc.Basic.String(), benchCapacity)
		adaptive := compiled[d.Collector]
		adaptiveOpts := psgc.RunOptions{
			Capacity: d.Capacity, Policy: policy.Adaptive, Decision: &d,
		}

		// Co-check the adaptive configuration against the oracle once.
		diverged := false
		cocheckOpts := adaptiveOpts
		cocheckOpts.CoCheck = true
		cocheckOpts.OnDivergence = func(psgc.Divergence) { diverged = true }
		res, err := adaptive.Run(cocheckOpts)
		if err != nil || diverged || res.Value != want {
			cocheckOK = false
			fmt.Printf("CO-CHECK FAILURE under adaptive policy on %s: err=%v diverged=%v value=%d want=%d\n",
				wl.name, err, diverged, res.Value, want)
		}

		// Timed reps, all variants interleaved, every run profiled.
		times := map[string][]float64{}
		values := map[string]psgc.Result{}
		for rep := 0; rep < policyReps+1; rep++ {
			for _, col := range statics {
				res, ms, err := profiledRun(compiled[col.String()], psgc.RunOptions{Capacity: benchCapacity}, &identitiesOK)
				if err != nil {
					log.Fatal(err)
				}
				if rep > 0 {
					times[col.String()] = append(times[col.String()], ms)
				}
				values[col.String()] = res
			}
			res, ms, err := profiledRun(adaptive, adaptiveOpts, &identitiesOK)
			if err != nil {
				log.Fatal(err)
			}
			if rep > 0 {
				times["adaptive"] = append(times["adaptive"], ms)
			}
			values["adaptive"] = res
		}
		row := func(variant, collector string, capacity int, ms float64) {
			res := values[variant]
			resultsOK = resultsOK && res.Value == want
			fmt.Printf("%-24s %-13s %-12s %5d %7d %7.1f\n", wl.name, variant, collector, capacity, res.Collections, ms)
		}
		bestStatic := math.Inf(1)
		for _, col := range statics {
			ms := p50(times[col.String()])
			bestStatic = math.Min(bestStatic, ms)
			row(col.String(), col.String(), benchCapacity, ms)
		}
		adaptiveMs := p50(times["adaptive"])
		row("adaptive", d.Collector, d.Capacity, adaptiveMs)
		fmt.Printf("%-24s decision: %s\n", "", d.Reason)
		logSum += math.Log(bestStatic / adaptiveMs)
	}
	geomean := math.Exp(logSum / float64(len(workloads)))

	fmt.Println()
	fmt.Printf("sampling_overhead_e1             %.3fx   (bound: <= 1.02)\n", overhead)
	fmt.Printf("adaptive_vs_best_static_geomean  %.3fx   (bound: >= 0.95)\n", geomean)
	fmt.Printf("identities_ok %v   cocheck_ok %v   results_ok %v\n", identitiesOK, cocheckOK, resultsOK)
	var failed []string
	if !(overhead <= 1.02) {
		failed = append(failed, fmt.Sprintf("sampling overhead %.3fx above 1.02", overhead))
	}
	if !(geomean >= 0.95) {
		failed = append(failed, fmt.Sprintf("adaptive vs best static %.3fx below 0.95", geomean))
	}
	if !identitiesOK {
		failed = append(failed, "profile/counter identities violated")
	}
	if !cocheckOK {
		failed = append(failed, "adaptive co-check failed")
	}
	if !resultsOK {
		failed = append(failed, "a run returned a wrong value")
	}
	if len(failed) > 0 {
		log.Fatalf("e10: %s", strings.Join(failed, "; "))
	}
}
