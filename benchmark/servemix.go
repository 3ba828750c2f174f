package main

import (
	"fmt"
	"net/http"
	"os"
	"runtime"

	"psgc"
)

// replicatedMisses bounds how many served misses a traced run re-runs
// in-process for the compile and machine measurements.
const replicatedMisses = 40

// serveSetup is a serve-mix run ready to start: its schedule with
// reference values, and a warm fleet.
type serveSetup struct {
	*schedule
	fleet  *fleet
	client *http.Client
	// conns bounds both the client's connections and each backend's
	// workers: the machine's CPU count.
	conns int
}

// setupServe draws the schedule, computes every reference, starts the
// fleet and sends each hot program through the gate once, so that hot
// requests find their program compiled.
func setupServe(seed int64, seconds float64, hops *hopLog) (*serveSetup, error) {
	sc := serveSchedule(seed, seconds)
	if err := setReferences(sc.programs()); err != nil {
		return nil, err
	}
	conns := runtime.NumCPU()
	f, err := startFleet(conns, hops)
	if err != nil {
		return nil, err
	}
	s := &serveSetup{schedule: sc, fleet: f, client: newClient(conns), conns: conns}
	for _, p := range sc.hot {
		o := post(s.client, f.url, p, "warmup-"+p.Name)
		if o.err == nil && o.resp.Value != p.Want {
			o.err = fmt.Errorf("value %d, reference %d", o.resp.Value, p.Want)
		}
		if o.err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up %s/%s: %w", p.Name, p.Col, o.err)
		}
	}
	return s, nil
}

func (s *serveSetup) close() {
	s.client.CloseIdleConnections()
	s.fleet.close()
}

// serveWorkload runs serve-mix. Untraced, it sets up setupRepeats times
// (keeping the last fleet) and then runs the closed loop and the open
// loop; traced, it also times the gate and service handlers and re-runs
// the served programs in-process layer by layer.
func serveWorkload(seed int64, seconds float64, spans *spanLog) (*measurement, error) {
	m := &measurement{values: map[string]float64{}}
	if err := loadCollectors(); err != nil {
		return nil, err
	}
	var hops *hopLog
	repeats := setupRepeats
	if spans != nil {
		hops = newHopLog()
		repeats = 1
	}
	var setups []float64
	var s *serveSetup
	for i := 0; i < repeats; i++ {
		if s != nil {
			s.close()
		}
		runtime.GC() // every set-up starts from a collected heap
		start := cpuTime(clockProcessCPU)
		var err error
		if s, err = setupServe(seed, seconds, hops); err != nil {
			return nil, err
		}
		setups = append(setups, (cpuTime(clockProcessCPU) - start).Seconds())
	}
	defer s.close()
	m.values["setup_s"] = quantile(setups, 0.5)
	runID := fmt.Sprintf("r%d", seed)
	runtime.GC()
	rss := startRSS()
	g0 := readGo()
	sr := closedServe(s.client, s.fleet.url, s.sequence, closedShare*seconds, runID)
	runtime.GC()
	lr := openLoop(s.client, s.fleet.url, s.arrivals, s.conns, runID)
	host := readGo().sub(g0)
	m.values["rss_mb"] = rss.median()
	t := tally(s.schedule, sr, lr)
	fmt.Fprintf(os.Stderr, "closed loop: %d of %d requests sent, %d hits, %d misses, hit CPU p50/p90 %.3f/%.3f ms, miss CPU p50/p90 %.1f/%.1f ms\n",
		len(sr.outs), len(s.sequence), len(t.hits), len(t.misses), quantile(t.hits, 0.5), quantile(t.hits, 0.9),
		quantile(t.misses, 0.5), quantile(t.misses, 0.9))
	for i, st := range t.steps {
		fmt.Fprintf(os.Stderr, "step %s %.0f rps: %d requests, %d failed, hit p50/p90 %.1f/%.1f ms, miss p50/p90 %.1f/%.1f ms, drained late %v, %.1f ok/s\n",
			rateSteps[i].Name, rateSteps[i].RPS, st.attempted, st.failed, quantile(st.hits, 0.5), quantile(st.hits, 0.9),
			quantile(st.misses, 0.5), quantile(st.misses, 0.9), st.grows, st.throughput)
	}
	t.metrics(m.values)
	m.attempted, m.failed, m.wrong, m.firstErr = t.attempted, t.failed, t.wrong, t.firstErr
	if spans == nil {
		return m, nil
	}
	hopMetrics(s.arrivals, lr, hops, spans, m.values)
	var hits, ok, rejected, runs float64
	for _, st := range t.steps {
		hits += float64(len(st.hits))
		ok += float64(st.attempted - st.failed)
	}
	hits += float64(len(t.hits))
	ok += float64(len(t.hits) + len(t.misses))
	for _, b := range s.fleet.backends {
		rejected += float64(b.Metrics().Rejected.Load())
		runs += float64(b.Metrics().RunRequests.Load())
	}
	m.values["service.cache_hit_ratio"] = ratio(hits, ok)
	m.values["service.rejected_ratio"] = ratio(rejected, runs)
	retries, err := s.fleet.gateRetries(s.client)
	if err != nil {
		return nil, err
	}
	m.values["gate.retries"] = retries
	m.values["loadgen.lag_ms.max"] = ms(lr.lagMax)
	nom := t.steps[nominalStep]
	m.values["loadgen.open_hit_ms.p50"] = quantile(nom.hits, 0.5)
	m.values["loadgen.open_hit_ms.p90"] = quantile(nom.hits, 0.9)
	m.values["loadgen.open_miss_ms.p50"] = quantile(nom.misses, 0.5)
	m.values["loadgen.open_miss_ms.p90"] = quantile(nom.misses, 0.9)
	if err := replicate(s, lr, spans, m.values); err != nil {
		return nil, err
	}
	// The host runtime is measured over both loops, not the replicas.
	hostMetrics(host, len(sr.outs)+len(s.arrivals), m.values)
	return m, nil
}

// replicate re-runs served programs in-process, outside the load: each
// hot program and the first replicatedMisses misses. Misses are compiled
// with per-phase spans; every program's run is stepped layer by layer and
// must reproduce both Compiled.Run and what the fleet served.
func replicate(s *serveSetup, lr *loadRun, spans *spanLog, out map[string]float64) error {
	served := map[*program]outcome{}
	var order []*program
	misses := 0
	for k, a := range s.arrivals {
		o := lr.outs[k]
		if _, done := served[a.Prog]; done || o.err != nil || (a.Miss && misses == replicatedMisses) {
			continue
		}
		if a.Miss {
			misses++
		}
		served[a.Prog] = o
		order = append(order, a.Prog)
	}
	t, err := newMachineTally()
	if err != nil {
		return err
	}
	log := newCompileLog()
	for _, p := range order {
		var c *psgc.Compiled
		if served[p].resp.Cached {
			c, err = psgc.Compile(p.Src, p.Col)
		} else {
			c, err = compileTraced(p, spans, log)
		}
		if err != nil {
			return err
		}
		res, err := t.tracedOp(c, p, spans, "replica-"+p.Name)
		if err != nil {
			return err
		}
		if err := sameStats(served[p].resp, res); err != nil {
			return fmt.Errorf("%s/%s: %w", p.Name, p.Col, err)
		}
	}
	log.metrics(out)
	return t.metrics(out)
}
