// Command benchmark is the repository's benchmark. One run measures one
// workload for a fixed time and prints every metric by name, with its
// unit, as the last line of standard output. From the repository root:
//
//	bash benchmark/run.sh --workload gc-heavy --seed 1 --seconds 32 --trace 0
//
// NOTES.md gives the workloads' inputs, the metrics' definitions and the
// predictions they test.
//
// Workloads:
//
//	gc-heavy       closed loop of in-process Compiled.Run calls on
//	               allocation-heavy programs at a small region capacity,
//	               where collector steps dominate
//	mutator-heavy  the same loop with collection disabled, so no
//	               collector step runs
//	serve-mix      /run requests through an in-process gate over two
//	               in-process backends, four in five for a hot set of
//	               cached programs and one in five for a never-seen
//	               program: a closed loop, one request at a time, then an
//	               open loop at fixed rates
//
// With --trace 0 the run reports end-to-end metrics with nothing traced.
// With --trace 1 it reports per-layer metrics, timed from this package
// around public calls into each layer, and writes the spans it kept to
// --spans. Every result is checked against psgc.Interpret.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"

	"psgc/internal/collector"
)

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a run with tracing off reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_cpu_ms.p50", "ms"},
	{"op_cpu_ms.p90", "ms"},
	{"miss_cpu_ms.p50", "ms"},
	{"miss_cpu_ms.p90", "ms"},
	{"max_rate_rps", "1/s"},
	{"rss_mb", "MiB"},
}

// perLayer are the metrics a traced run reports. A layer a workload does
// not reach (the service and gate on the in-process workloads, the
// generator's lag on a closed loop) reports 0.
var perLayer = []metricDef{
	{"gclang.collector_steps", "count"},
	{"gclang.collector_ns_per_step", "ns"},
	{"gclang.collector_allocs_per_step", "count"},
	{"gclang.collector_time_share", "ratio"},
	{"gclang.gc_pause_ms.p50", "ms"},
	{"gclang.gc_pause_ms.max", "ms"},
	{"gclang.collections", "count"},
	{"gclang.mutator_steps", "count"},
	{"gclang.mutator_ns_per_step", "ns"},
	{"gclang.mutator_allocs_per_step", "count"},
	{"regions.puts", "count"},
	{"regions.cells_reclaimed", "count"},
	{"regions.max_live_cells", "count"},
	{"regions.replay_ms", "ms"},
	{"regions.time_share", "ratio"},
	{"go.allocs_per_op", "count"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.gc_cpu_share", "ratio"},
	{"source.parse_ms", "ms"},
	{"cps.convert_ms", "ms"},
	{"closconv.convert_ms", "ms"},
	{"collector.load_ms", "ms"},
	{"translate.translate_ms", "ms"},
	{"gclang.typecheck_ms", "ms"},
	{"gclang.program_size", "count"},
	{"service.handler_ms.p50", "ms"},
	{"service.overhead_ms.p50", "ms"},
	{"service.overhead_ms.p90", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.rejected_ratio", "ratio"},
	{"gate.hop_ms.p50", "ms"},
	{"gate.hop_ms.p90", "ms"},
	{"gate.retries", "count"},
	{"loadgen.lag_ms.max", "ms"},
	{"loadgen.open_hit_ms.p50", "ms"},
	{"loadgen.open_hit_ms.p90", "ms"},
	{"loadgen.open_miss_ms.p50", "ms"},
	{"loadgen.open_miss_ms.p90", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"failure_ratio", "ratio"},
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 7

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measurement is what a workload hands back: the raw metrics plus the
// operation counts.
type measurement struct {
	values            map[string]float64
	attempted, failed int
	wrong             int
	firstErr          error
}

var workloads = map[string]func(seed int64, seconds float64, spans *spanLog) (*measurement, error){
	"gc-heavy": func(seed int64, s float64, sp *spanLog) (*measurement, error) {
		return inprocWorkload(gcHeavyPrograms, seed, s, sp)
	},
	"mutator-heavy": func(seed int64, s float64, sp *spanLog) (*measurement, error) {
		return inprocWorkload(mutatorHeavyPrograms, seed, s, sp)
	},
	"serve-mix": serveWorkload,
}

func main() {
	name := flag.String("workload", "", "gc-heavy, mutator-heavy or serve-mix")
	seed := flag.Int64("seed", 1, "seed the inputs are drawn from")
	seconds := flag.Float64("seconds", 32, "how long the run measures")
	trace := flag.Int("trace", 0, "0 for end-to-end metrics, 1 for the traced per-layer run")
	spansPath := flag.String("spans", "", "where a traced run writes its spans (default .bench_build/spans/<workload>-<seed>.json)")
	flag.Parse()
	rep, err := run(*name, *seed, *seconds, *trace, *spansPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace int, spansPath string) (*report, error) {
	w, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want gc-heavy, mutator-heavy or serve-mix)", name)
	}
	if seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return nil, errors.New("--trace must be 0 or 1")
	}
	var spans *spanLog
	defs := endToEnd
	if trace == 1 {
		spans = newSpanLog()
		defs = perLayer
	}
	m, err := w(seed, seconds, spans)
	if err != nil {
		return nil, err
	}
	if m.firstErr != nil {
		fmt.Fprintln(os.Stderr, "benchmark: first failure:", m.firstErr)
	}
	if trace == 1 {
		m.values["failure_ratio"] = ratio(float64(m.failed), float64(m.attempted))
		if spansPath == "" {
			spansPath = fmt.Sprintf(".bench_build/spans/%s-%d.json", name, seed)
		}
		if err := spans.write(spansPath); err != nil {
			return nil, err
		}
	}
	rep := &report{Correct: m.wrong == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := m.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		rep.Metrics[d.name] = metricValue{v, d.unit}
	}
	return rep, nil
}

// loadCollectors fills the process-wide verified-collector cache, which
// every compile reads, so that no measured operation pays for it.
func loadCollectors() error {
	for _, col := range collectors {
		if _, err := collector.Load(col.Dialect()); err != nil {
			return fmt.Errorf("load %s collector: %w", col, err)
		}
	}
	return nil
}

// notServed are the layers an in-process workload does not reach.
var notServed = []string{
	"service.handler_ms.p50", "service.overhead_ms.p50", "service.overhead_ms.p90",
	"service.cache_hit_ratio", "service.rejected_ratio",
	"gate.hop_ms.p50", "gate.hop_ms.p90", "gate.retries", "loadgen.lag_ms.max",
	"loadgen.open_hit_ms.p50", "loadgen.open_hit_ms.p90", "loadgen.open_miss_ms.p50", "loadgen.open_miss_ms.p90",
}

// inprocWorkload runs a closed-loop workload. Untraced, it sets up
// setupRepeats times and then measures the loop; traced, it sets up once
// (keeping the compile spans) and measures layer by layer.
func inprocWorkload(progs func(int64) []*program, seed int64, seconds float64, spans *spanLog) (*measurement, error) {
	m := &measurement{values: map[string]float64{}}
	if err := loadCollectors(); err != nil {
		return nil, err
	}
	repeats := setupRepeats
	if spans != nil {
		repeats = 1
	}
	var setups []float64
	var ls []loaded
	var log *compileLog
	for i := 0; i < repeats; i++ {
		log = newCompileLog()
		runtime.GC() // every set-up starts from a collected heap
		start := cpuTime(clockProcessCPU)
		var err error
		if ls, err = setupInproc(progs(seed), spans, log); err != nil {
			return nil, err
		}
		setups = append(setups, (cpuTime(clockProcessCPU) - start).Seconds())
	}
	m.values["setup_s"] = quantile(setups, 0.5)
	runtime.GC()
	rss := startRSS()
	if spans != nil {
		n, err := tracedInproc(ls, seconds, spans, m.values)
		rss.median()
		if err != nil {
			return nil, err
		}
		log.metrics(m.values)
		for _, name := range notServed {
			m.values[name] = 0
		}
		m.attempted = n
		return m, nil
	}
	r := closedLoop(ls, seconds)
	m.values["rss_mb"] = rss.median()
	r.metrics(m.values)
	m.attempted, m.failed, m.wrong, m.firstErr = r.attempted, r.failed, r.wrong, r.firstErr
	return m, nil
}
