package main

import (
	"fmt"
	"time"

	"psgc"
	"psgc/internal/gclang"
)

// loaded is a program compiled at set-up.
type loaded struct {
	*program
	c *psgc.Compiled
}

// compileLog collects, over a workload's traced compiles, each phase's
// duration (ms) by phase name and the compiled program's size.
type compileLog struct {
	phases map[string][]float64
	sizes  []float64
}

func newCompileLog() *compileLog { return &compileLog{phases: map[string][]float64{}} }

// phaseMetrics names the metric each compile phase of psgc.CompileTraced
// reports as.
var phaseMetrics = map[string]string{
	"parse":     "source.parse_ms",
	"cps":       "cps.convert_ms",
	"closconv":  "closconv.convert_ms",
	"collector": "collector.load_ms",
	"translate": "translate.translate_ms",
	"typecheck": "gclang.typecheck_ms",
}

// metrics reports the median of each phase and of the program sizes.
func (l *compileLog) metrics(out map[string]float64) {
	for phase, name := range phaseMetrics {
		out[name] = quantile(l.phases[phase], 0.5)
	}
	out["gclang.program_size"] = quantile(l.sizes, 0.5)
}

// compileTraced compiles p, recording the compile and its phases as spans.
func compileTraced(p *program, spans *spanLog, log *compileLog) (*psgc.Compiled, error) {
	traceID := "compile-" + p.Name + "-" + p.Col.String()
	start := time.Now()
	c, ph, err := psgc.CompileTraced(p.Src, p.Col)
	end := time.Now()
	if err != nil {
		return nil, fmt.Errorf("compile %s/%s: %w", p.Name, p.Col, err)
	}
	id := spans.add("psgc.compile", traceID, 0, start, end)
	for _, s := range ph {
		b := start.Add(time.Duration(s.StartMs * float64(time.Millisecond)))
		spans.add(s.Phase, traceID, id, b, b.Add(time.Duration(s.DurMs*float64(time.Millisecond))))
		log.phases[s.Phase] = append(log.phases[s.Phase], s.DurMs)
	}
	log.sizes = append(log.sizes, float64(gclang.ProgramSize(c.Prog)))
	return c, nil
}

// setupInproc generates a closed-loop workload's programs, computes their
// references, compiles them and runs each once to warm up.
func setupInproc(progs []*program, spans *spanLog, log *compileLog) ([]loaded, error) {
	if err := setReferences(progs); err != nil {
		return nil, err
	}
	ls := make([]loaded, len(progs))
	for i, p := range progs {
		c, err := compileTraced(p, spans, log)
		if err != nil {
			return nil, err
		}
		res, err := c.Run(psgc.RunOptions{Capacity: p.Capacity})
		if err != nil {
			return nil, fmt.Errorf("warm-up %s/%s: %w", p.Name, p.Col, err)
		}
		if res.Value != p.Want {
			return nil, fmt.Errorf("warm-up %s/%s: value %d, reference %d", p.Name, p.Col, res.Value, p.Want)
		}
		ls[i] = loaded{p, c}
	}
	return ls, nil
}

// missRoundEvery makes every missRoundEvery-th round of a closed loop a miss round:
// each program is compiled from source before it runs, the cost a caller
// pays for a program it has not compiled yet.
const missRoundEvery = 2

// loopResult is what a closed loop measured.
type loopResult struct {
	hits, misses      []float64 // per-operation process CPU time, ms
	attempted, failed int
	wrong             int
	firstErr          error
	busy              time.Duration // process CPU time of all operations
}

// closedLoop runs whole rounds of the programs, one operation at a time,
// until seconds have passed. Each operation is timed by the process's CPU
// clock: nothing else runs meanwhile, so that is the operation's own work
// plus the Go runtime's collection of its garbage on other threads.
func closedLoop(ls []loaded, seconds float64) loopResult {
	var r loopResult
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		miss := round%missRoundEvery == missRoundEvery-1
		for _, l := range ls {
			t0 := cpuTime(clockProcessCPU)
			c := l.c
			var err error
			if miss {
				c, err = psgc.Compile(l.Src, l.Col)
			}
			var res psgc.Result
			if err == nil {
				res, err = c.Run(psgc.RunOptions{Capacity: l.Capacity})
			}
			d := cpuTime(clockProcessCPU) - t0
			r.busy += d
			r.attempted++
			switch {
			case err != nil:
				r.failed++
				if r.firstErr == nil {
					r.firstErr = fmt.Errorf("%s/%s: %w", l.Name, l.Col, err)
				}
			case res.Value != l.Want:
				r.failed++
				r.wrong++
				if r.firstErr == nil {
					r.firstErr = fmt.Errorf("%s/%s: value %d, reference %d", l.Name, l.Col, res.Value, l.Want)
				}
			case miss:
				r.misses = append(r.misses, ms(d))
			default:
				r.hits = append(r.hits, ms(d))
			}
		}
	}
	return r
}

// metrics reports the loop's end-to-end metrics. The loop's rate is its
// correct operations per second of the operations' CPU time. A closed
// loop with one client offers exactly the rate it completes, so its
// highest sustained rate is that rate.
func (r loopResult) metrics(out map[string]float64) {
	ok := float64(r.attempted - r.failed)
	out["ops_per_s"] = ok / r.busy.Seconds()
	out["op_cpu_ms.p50"] = quantile(r.hits, 0.5)
	out["op_cpu_ms.p90"] = quantile(r.hits, 0.9)
	out["miss_cpu_ms.p50"] = quantile(r.misses, 0.5)
	out["miss_cpu_ms.p90"] = quantile(r.misses, 0.9)
	out["max_rate_rps"] = 0
	if r.failed == 0 {
		out["max_rate_rps"] = out["ops_per_s"]
	}
}

// tracedInproc measures the programs layer by layer in passes until
// seconds have passed, and returns how many operations it traced.
// Host-runtime counters cover only the untraced Compiled.Run of each
// operation.
func tracedInproc(ls []loaded, seconds float64, spans *spanLog, out map[string]float64) (int, error) {
	t, err := newMachineTally()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for t.passes == 0 || time.Since(start).Seconds() < seconds {
		for _, l := range ls {
			traceID := fmt.Sprintf("pass%d-%s-%s", t.passes, l.Name, l.Col)
			res, err := t.tracedOp(l.c, l.program, spans, traceID)
			if err != nil {
				return 0, err
			}
			if res.Value != l.Want {
				return 0, fmt.Errorf("%s/%s: value %d, reference %d", l.Name, l.Col, res.Value, l.Want)
			}
		}
		t.passes++
	}
	if err := t.metrics(out); err != nil {
		return 0, err
	}
	return t.passes * len(ls), nil
}
