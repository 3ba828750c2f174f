package main

import (
	"fmt"
	"time"

	"psgc"
	"psgc/internal/collector"
	"psgc/internal/gclang"
	"psgc/internal/regions"
)

// collectorCode says where a compiled program's collector lives: the entry
// addresses whose call begins a collection, and the size of the certified
// prefix of cd. A call into cd at or past that prefix is mutator code, so
// the first one after an entry ends the collection.
type collectorCode struct {
	entries map[regions.Addr]bool
	funs    int
}

func collectorCodeFor(col psgc.Collector) (collectorCode, error) {
	v, err := collector.Load(col.Dialect())
	if err != nil {
		return collectorCode{}, fmt.Errorf("load %s collector: %w", col, err)
	}
	cc := collectorCode{entries: map[regions.Addr]bool{}, funs: len(v.Funs)}
	for _, a := range v.Entries {
		cc.entries[a] = true
	}
	return cc, nil
}

// machineSplit is what one outside-in stepped run measured. The clock and
// the allocation counter are read only where control crosses between
// mutator and collector, so each step costs what it costs untraced.
type machineSplit struct {
	Wall                           time.Duration // machine construction to halt
	Mutator, Collector             time.Duration
	MutatorSteps, CollectorSteps   int
	MutatorAllocs, CollectorAllocs uint64
	Pauses                         []time.Duration
}

// steppedRun runs c as Compiled.Run would with opts (engine env, the
// default store), stepping the machine from outside and splitting time,
// steps and heap allocations between mutator and collector. Each
// collection becomes a span under parent.
func steppedRun(c *psgc.Compiled, opts psgc.RunOptions, cc collectorCode, spans *spanLog, traceID string, parent int) (psgc.Result, machineSplit, error) {
	var sp machineSplit
	allocs := newAllocCounter()
	start := time.Now()
	m := c.NewEnvMachine(opts)
	fuel := opts.Fuel
	if fuel == 0 {
		fuel = psgc.DefaultFuel
	}
	returned := false
	hook := func(ev gclang.StepEvent) {
		if ev.Kind == gclang.StepCall && ev.Addr.Region == regions.CD && ev.Addr.Off >= cc.funs {
			returned = true
		}
	}
	collections := 0
	inGC := false
	lastT, lastA, lastSteps := time.Now(), allocs.read(), 0
	// boundary closes the interval that began at the previous boundary.
	boundary := func() time.Time {
		now, a := time.Now(), allocs.read()
		if inGC {
			sp.Collector += now.Sub(lastT)
			sp.CollectorAllocs += a - lastA
			sp.CollectorSteps += m.Steps - lastSteps
			sp.Pauses = append(sp.Pauses, now.Sub(lastT))
		} else {
			sp.Mutator += now.Sub(lastT)
			sp.MutatorAllocs += a - lastA
			sp.MutatorSteps += m.Steps - lastSteps
		}
		prev := lastT
		lastT, lastA, lastSteps = now, a, m.Steps
		return prev
	}
	for !m.Halted {
		if fuel <= 0 {
			return psgc.Result{}, sp, fmt.Errorf("%w after %d steps", psgc.ErrOutOfFuel, m.Steps)
		}
		fuel--
		if a, ok := m.PendingCall(); ok && cc.entries[a] {
			collections++
			if !inGC {
				boundary()
				inGC = true
				m.Event = hook
			}
		}
		if err := m.Step(); err != nil {
			return psgc.Result{}, sp, err
		}
		if returned {
			began := boundary()
			spans.add("gclang.collection", traceID, parent, began, lastT)
			inGC, returned = false, false
			m.Event = nil
		}
	}
	boundary()
	sp.Wall = time.Since(start)
	n, ok := m.Result.(gclang.Num)
	if !ok {
		return psgc.Result{}, sp, fmt.Errorf("program halted with non-integer %s", m.Result)
	}
	return psgc.Result{Value: n.N, Steps: m.Steps, Collections: collections,
		Stats: m.Mem.Stats(), LiveCells: m.Mem.LiveCells()}, sp, nil
}

// identical fails unless the traced run reproduced the untraced Result bit
// for bit: value, steps, collections, every Stats counter and live cells.
func identical(untraced, traced psgc.Result) error {
	if untraced != traced {
		return fmt.Errorf("traced run differs from Compiled.Run:\n  untraced %+v\n  traced   %+v", untraced, traced)
	}
	return nil
}

// reconcileBound is how far mutator plus collector time may stray from the
// traced wall time.
const reconcileBound = 0.10

// reconcile fails unless mutator plus collector time accounts for the
// traced wall time within reconcileBound.
func reconcile(wall, mutator, coll time.Duration) error {
	if wall <= 0 {
		return fmt.Errorf("traced wall time %v is not positive", wall)
	}
	gap := float64(wall - mutator - coll)
	if gap < 0 {
		gap = -gap
	}
	if gap > reconcileBound*float64(wall) {
		return fmt.Errorf("mutator %v + collector %v does not reconcile with traced wall %v within %.0f%%",
			mutator, coll, wall, 100*reconcileBound)
	}
	return nil
}

// opLog is a run's recorded store traffic: the store's image when the
// program was loaded, and every operation after it.
type opLog struct {
	backend regions.Backend
	initial regions.Image[gclang.Cell]
	ops     []regions.Op[gclang.Cell]
}

// recordOps runs c with the store wrapped in an op recorder.
func recordOps(c *psgc.Compiled, opts psgc.RunOptions) (psgc.Result, *opLog, error) {
	log := &opLog{}
	var tr *regions.Trace[gclang.Cell]
	opts.WrapStore = func(s regions.Store[gclang.Cell]) regions.Store[gclang.Cell] {
		log.backend = s.Backend()
		log.initial = regions.Snapshot(s)
		tr = regions.NewTrace(s)
		return tr
	}
	res, err := c.Run(opts)
	if err != nil {
		return res, nil, err
	}
	log.ops = tr.Ops
	return res, log, nil
}

// replay times the recorded operations against a fresh store of the
// backend the run used, restored to the loaded image.
func (l *opLog) replay() (time.Duration, error) {
	s, err := regions.Restore(l.backend, l.initial)
	if err != nil {
		return 0, fmt.Errorf("replay: %w", err)
	}
	start := time.Now()
	if err := regions.Replay(l.ops, s); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// machineTally sums the machine and store measurements of traced passes
// over a workload's programs. Counts are reported per pass; every pass
// runs the same programs, so they are exact.
type machineTally struct {
	code                     map[psgc.Collector]collectorCode
	passes                   int
	untracedWall, tracedWall time.Duration
	split                    machineSplit
	collections              int
	puts, reclaimed, maxLive int
	replay                   time.Duration
	host                     goCounters // over the untraced runs only
	untracedRuns             int
}

// newMachineTally resolves every collector's code bounds.
func newMachineTally() (*machineTally, error) {
	t := &machineTally{code: map[psgc.Collector]collectorCode{}}
	for _, col := range collectors {
		cc, err := collectorCodeFor(col)
		if err != nil {
			return nil, err
		}
		t.code[col] = cc
	}
	return t, nil
}

// tracedOp measures one program outside-in: an untraced Compiled.Run, a
// stepped run that must reproduce it, and a recorded run whose store
// traffic is replayed. It returns the untraced Result.
func (t *machineTally) tracedOp(c *psgc.Compiled, p *program, spans *spanLog, traceID string) (psgc.Result, error) {
	opts := psgc.RunOptions{Capacity: p.Capacity}
	g0 := readGo()
	start := time.Now()
	want, err := c.Run(opts)
	t.untracedWall += time.Since(start)
	t.host = t.host.add(readGo().sub(g0))
	t.untracedRuns++
	if err != nil {
		return want, fmt.Errorf("%s/%s: %w", p.Name, p.Col, err)
	}
	run := spans.begin("gclang.run", traceID, 0)
	got, split, err := steppedRun(c, opts, t.code[p.Col], spans, traceID, run)
	spans.end(run)
	if err != nil {
		return want, fmt.Errorf("%s/%s stepped: %w", p.Name, p.Col, err)
	}
	if err := identical(want, got); err != nil {
		return want, fmt.Errorf("%s/%s: %w", p.Name, p.Col, err)
	}
	t.tracedWall += split.Wall
	t.split.Mutator += split.Mutator
	t.split.Collector += split.Collector
	t.split.MutatorSteps += split.MutatorSteps
	t.split.CollectorSteps += split.CollectorSteps
	t.split.MutatorAllocs += split.MutatorAllocs
	t.split.CollectorAllocs += split.CollectorAllocs
	t.split.Pauses = append(t.split.Pauses, split.Pauses...)
	t.collections += want.Collections
	t.puts += want.Stats.Puts
	t.reclaimed += want.Stats.CellsReclaimed
	t.maxLive = max(t.maxLive, want.Stats.MaxLiveCells)
	rec, log, err := recordOps(c, opts)
	if err != nil {
		return want, fmt.Errorf("%s/%s recorded: %w", p.Name, p.Col, err)
	}
	if err := identical(want, rec); err != nil {
		return want, fmt.Errorf("%s/%s recorded: %w", p.Name, p.Col, err)
	}
	d, err := log.replay()
	if err != nil {
		return want, fmt.Errorf("%s/%s: %w", p.Name, p.Col, err)
	}
	t.replay += d
	return want, nil
}

// metrics reports the tally as per-layer metrics, failing if the machine
// split does not reconcile.
func (t *machineTally) metrics(out map[string]float64) error {
	s := t.split
	if err := reconcile(t.tracedWall, s.Mutator, s.Collector); err != nil {
		return err
	}
	per := float64(max(t.passes, 1))
	pauses := make([]float64, len(s.Pauses))
	for i, p := range s.Pauses {
		pauses[i] = ms(p)
	}
	out["gclang.collector_steps"] = float64(s.CollectorSteps) / per
	out["gclang.collector_ns_per_step"] = ratio(float64(s.Collector), float64(s.CollectorSteps))
	out["gclang.collector_allocs_per_step"] = ratio(float64(s.CollectorAllocs), float64(s.CollectorSteps))
	out["gclang.collector_time_share"] = ratio(float64(s.Collector), float64(s.Mutator+s.Collector))
	out["gclang.gc_pause_ms.p50"] = quantile(pauses, 0.5)
	out["gclang.gc_pause_ms.max"] = quantile(pauses, 1)
	out["gclang.collections"] = float64(t.collections) / per
	out["gclang.mutator_steps"] = float64(s.MutatorSteps) / per
	out["gclang.mutator_ns_per_step"] = ratio(float64(s.Mutator), float64(s.MutatorSteps))
	out["gclang.mutator_allocs_per_step"] = ratio(float64(s.MutatorAllocs), float64(s.MutatorSteps))
	out["regions.puts"] = float64(t.puts) / per
	out["regions.cells_reclaimed"] = float64(t.reclaimed) / per
	out["regions.max_live_cells"] = float64(t.maxLive)
	out["regions.replay_ms"] = ms(t.replay) / per
	out["regions.time_share"] = ratio(float64(t.replay), float64(t.untracedWall))
	out["trace.overhead_ratio"] = ratio(float64(t.tracedWall), float64(t.untracedWall))
	hostMetrics(t.host, t.untracedRuns, out)
	return nil
}

// hostMetrics reports the host Go runtime's allocations per operation and
// its garbage collector's share of CPU time.
func hostMetrics(g goCounters, ops int, out map[string]float64) {
	out["go.allocs_per_op"] = ratio(float64(g.objects), float64(ops))
	out["go.alloc_bytes_per_op"] = ratio(float64(g.bytes), float64(ops))
	out["go.gc_cpu_share"] = ratio(g.gcCPU, g.totalCPU)
}
