package psgc

// The testing.B counterparts of the experiment harness (cmd/psgc-bench):
// one benchmark per DESIGN.md experiment, measuring the certified
// collectors on the λGC machine. See EXPERIMENTS.md for the recorded
// tables.

import (
	"fmt"
	"math/rand"
	"testing"

	"psgc/internal/baseline"
	"psgc/internal/gclang"
	"psgc/internal/gen"
	"psgc/internal/names"
	"psgc/internal/regions"
	"psgc/internal/source"
	"psgc/internal/tags"
	"psgc/internal/workload"
)

// benchCollectOnce runs a single collection of the given shape/size.
func benchCollectOnce(b *testing.B, d gclang.Dialect, shape workload.Shape, size int) {
	b.Helper()
	c, err := workload.BuildCollectOnce(d, shape, size)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Run(2_000_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// E1: one full collection of a 256-cell list under each collector.
func BenchmarkBasicCollect(b *testing.B)        { benchCollectOnce(b, gclang.Base, workload.List, 256) }
func BenchmarkForwardingCollect(b *testing.B)   { benchCollectOnce(b, gclang.Forw, workload.List, 256) }
func BenchmarkGenerationalCollect(b *testing.B) { benchCollectOnce(b, gclang.Gen, workload.List, 256) }

// E2: continuation-region bound — reported as copied cells and peak
// continuations per op.
func BenchmarkContinuationRegion(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("list-%d", n), func(b *testing.B) {
			c, err := workload.BuildCollectOnce(gclang.Base, workload.List, n)
			if err != nil {
				b.Fatal(err)
			}
			var st workload.RunStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err = c.Run(2_000_000_000)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.MaxCont), "peak-conts")
			b.ReportMetric(float64(st.Copied), "copied")
		})
	}
}

// E3: sharing — basic blows up exponentially on DAGs, forwarding stays
// linear.
func BenchmarkSharingBasic(b *testing.B) {
	for _, depth := range []int{6, 10} {
		b.Run(fmt.Sprintf("dag-%d", depth), func(b *testing.B) {
			benchCollectOnce(b, gclang.Base, workload.DAG, depth)
		})
	}
}

func BenchmarkSharingForw(b *testing.B) {
	for _, depth := range []int{6, 10, 14} {
		b.Run(fmt.Sprintf("dag-%d", depth), func(b *testing.B) {
			benchCollectOnce(b, gclang.Forw, workload.DAG, depth)
		})
	}
}

// E4: space model of the two forwarding disciplines.
func BenchmarkForwardingSpace(b *testing.B) {
	var m baseline.SpaceModel
	for i := 0; i < b.N; i++ {
		m = baseline.SpaceOverhead(1 << 16)
	}
	b.ReportMetric(float64(m.PairedWords), "paired-words")
	b.ReportMetric(float64(m.TagBitsWords), "tagbit-words")
}

// E5: one minor generational collection of a 256-cell young list.
func BenchmarkGenerationalMinor(b *testing.B) {
	benchCollectOnce(b, gclang.Gen, workload.List, 256)
}

// E6a: tag normalization cost (decidability, Prop. 6.1).
func BenchmarkTagNormalize(b *testing.B) {
	tag := tags.Tag(tags.Int{})
	for i := 0; i < 512; i++ {
		tag = tags.Prod{L: tags.Int{}, R: tag}
	}
	for i := 0; i < 8; i++ {
		tag = tags.App{Fn: tags.Lam{Param: "u", Body: tags.Var{Name: "u"}}, Arg: tag}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tags.Normalize(tag); err != nil {
			b.Fatal(err)
		}
	}
}

// E6b: whole-pipeline compile + λGC typecheck of a mid-sized program.
func BenchmarkTypecheck(b *testing.B) {
	r := rand.New(rand.NewSource(99))
	p := gen.Program(r, gen.Config{MaxDepth: 5, MaxFuns: 3, Recursion: 3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompileProgram(p, Basic); err != nil {
			b.Fatal(err)
		}
	}
}

// Verified-collector cache: the cold path rebuilds and re-typechecks the
// collector on every compile (the pre-cache behavior); the cached path
// loads the shared verified collector and checks only the mutator's code.
// The gap is the per-request typechecking cost the service amortizes away.
func BenchmarkCompileCold(b *testing.B) {
	p := source.MustParse("fun build (n : int) : int =\n  if0 n then 0\n  else let p = (n, (n, n)) in fst p + build (n - 1)\ndo build 30")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compileProgramCold(p, Basic); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompileCached(b *testing.B) {
	p := source.MustParse("fun build (n : int) : int =\n  if0 n then 0\n  else let p = (n, (n, n)) in fst p + build (n - 1)\ndo build 30")
	// Warm the verified-collector cache outside the timed region.
	if _, err := CompileProgram(p, Basic); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompileProgram(p, Basic); err != nil {
			b.Fatal(err)
		}
	}
}

// E7: end-to-end run with collections (no per-step checking — that is the
// test suite's job; this measures the machine's plain running cost).
func BenchmarkEndToEnd(b *testing.B) {
	src := "fun build (n : int) : int =\n  if0 n then 0\n  else let p = (n, (n, n)) in fst p + build (n - 1)\ndo build 40"
	for _, col := range []Collector{Basic, Forwarding, Generational} {
		b.Run(col.String(), func(b *testing.B) {
			c, err := Compile(src, col)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Run(RunOptions{Capacity: 48}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E8: code-size model — specialization counting cost and result.
func BenchmarkSpecializationBlowup(b *testing.B) {
	r := rand.New(rand.NewSource(8))
	p := gen.Program(r, gen.Config{MaxDepth: 5, MaxFuns: 3, Recursion: 3})
	c, err := CompileProgram(p, Basic)
	if err != nil {
		b.Fatal(err)
	}
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n = baseline.SpecializationCount(c.Clos)
	}
	b.ReportMetric(float64(n), "specializations")
	b.ReportMetric(float64(baseline.ITACollectorBlocks), "ita-blocks")
}

// E9: mutator overhead — compiled program with collections disabled.
func BenchmarkMutatorOverhead(b *testing.B) {
	src := "fun f (n : int) : int = if0 n then 0 else n + f (n - 1)\ndo f 60"
	ref := source.MustParse(src)
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ev := source.Evaluator{}
			if _, err := ev.RunInt(ref); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lambda-gc", func(b *testing.B) {
		c, err := Compile(src, Basic)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Run(RunOptions{Capacity: 0}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Baseline comparison: the untrusted Go copying collector over the same
// heap shape as BenchmarkBasicCollect — what the paper lets us stop
// trusting.
func BenchmarkUntypedGoCollect(b *testing.B) {
	mem := regions.New[gclang.Value](0)
	r := mem.NewRegion()
	node, _ := mem.Put(r, gclang.PairV{L: gclang.Num{N: 1}, R: gclang.Num{N: 2}})
	tag := tags.Tag(tags.Prod{L: tags.Int{}, R: tags.Int{}})
	root := gclang.Value(gclang.AddrV{Addr: node})
	for i := 1; i < 256; i++ {
		a, _ := mem.Put(r, gclang.PairV{L: gclang.Num{N: i}, R: root})
		root = gclang.AddrV{Addr: a}
		tag = tags.Prod{L: tags.Int{}, R: tag}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := baseline.CopyRoot(mem, tag, root, true); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations: the design choices DESIGN.md calls out.
// ---------------------------------------------------------------------------

// Ablation: capture-avoiding vs closed-payload tag substitution — the
// machine's fast path (see gclang.Subst.Closed).
func BenchmarkAblationTagSubst(b *testing.B) {
	big := tags.Tag(tags.Int{})
	for i := 0; i < 1024; i++ {
		big = tags.Prod{L: tags.Int{}, R: big}
	}
	target := tags.Tag(tags.Exist{Bound: "u", Body: tags.Prod{
		L: tags.Var{Name: "u"},
		R: tags.Exist{Bound: "w", Body: tags.Prod{L: tags.Var{Name: "t"}, R: tags.Var{Name: "w"}}},
	}})
	sub := map[names.Name]tags.Tag{"t": big}
	b.Run("capture-avoiding", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tags.SubstAll(target, sub)
		}
	})
	b.Run("closed-fast-path", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tags.SubstAllClosed(target, sub)
		}
	})
}

// Ablation: the isNormal fast path of tags.Normalize — collectors analyze
// large already-normal tags at every typecase.
func BenchmarkAblationNormalizeFastPath(b *testing.B) {
	normal := tags.Tag(tags.Int{})
	for i := 0; i < 2048; i++ {
		normal = tags.Prod{L: tags.Int{}, R: normal}
	}
	b.Run("already-normal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tags.Normalize(normal); err != nil {
				b.Fatal(err)
			}
		}
	})
	redex := tags.Tag(tags.App{Fn: tags.Lam{Param: "u", Body: tags.Var{Name: "u"}}, Arg: normal})
	b.Run("one-redex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tags.Normalize(redex); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation: survivor-driven heap growth vs a fixed capacity generous
// enough to terminate — growth trades a larger heap for fewer
// collections.
func BenchmarkAblationHeapGrowth(b *testing.B) {
	src := "fun churn (m : int) : int =\n  if0 m then 7\n  else let junk = (m, m) in churn (m - 1)\ndo churn 60"
	run := func(b *testing.B, opts RunOptions) {
		c, err := Compile(src, Basic)
		if err != nil {
			b.Fatal(err)
		}
		var res Result
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err = c.Run(opts)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.Collections), "collections")
		b.ReportMetric(float64(res.Stats.MaxLiveCells), "max-live")
	}
	b.Run("auto-grow-from-32", func(b *testing.B) {
		run(b, RunOptions{Capacity: 32})
	})
	b.Run("fixed-1024", func(b *testing.B) {
		run(b, RunOptions{Capacity: 1024, FixedCapacity: true})
	})
}

// E1 under both engines: the environment machine against the substitution
// oracle on the single-collection workloads, bare machines (no trace hook)
// so the numbers isolate the stepping cost. See EXPERIMENTS.md §E1 and
// BENCH_4.json for the recorded speedups.
func benchEnvVsSubst(b *testing.B, d gclang.Dialect, shape workload.Shape, size int) {
	b.Helper()
	c, err := workload.BuildCollectOnce(d, shape, size)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("subst", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := gclang.NewMachine(c.Dialect, c.Prog, 0)
			if _, err := gclang.Run(m, 2_000_000_000); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("env", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := gclang.NewEnvMachine(c.Dialect, c.Prog, 0)
			if _, err := gclang.Run(m, 2_000_000_000); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkEnvVsSubstBasicList(b *testing.B) {
	benchEnvVsSubst(b, gclang.Base, workload.List, 256)
}

func BenchmarkEnvVsSubstBasicListLarge(b *testing.B) {
	benchEnvVsSubst(b, gclang.Base, workload.List, 1024)
}

func BenchmarkEnvVsSubstForwDAG(b *testing.B) {
	benchEnvVsSubst(b, gclang.Forw, workload.DAG, 10)
}

func BenchmarkEnvVsSubstGenList(b *testing.B) {
	benchEnvVsSubst(b, gclang.Gen, workload.List, 256)
}

// BenchmarkEnvVsSubstEndToEnd compares the engines through the public
// Compiled.Run path (compile once, run with collections at capacity 48),
// i.e. what the service and CLI actually pay.
func BenchmarkEnvVsSubstEndToEnd(b *testing.B) {
	src := "fun build (n : int) : int =\n  if0 n then 0\n  else let p = (n, (n, n)) in fst p + build (n - 1)\ndo build 40"
	c, err := Compile(src, Basic)
	if err != nil {
		b.Fatal(err)
	}
	for _, eng := range []Engine{EngineSubst, EngineEnv} {
		b.Run(eng.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.Run(RunOptions{Capacity: 48, Engine: eng}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
