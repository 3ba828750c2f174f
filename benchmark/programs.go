package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"psgc"
	"psgc/internal/gen"
	"psgc/internal/source"
	"psgc/internal/workload"
)

// collectors are the three collectors every workload draws from.
var collectors = []psgc.Collector{psgc.Basic, psgc.Forwarding, psgc.Generational}

// program is one generated input: a source text, the collector it is
// linked with, the region capacity it runs at, and (after set-up) the
// reference value psgc.Interpret computes for it.
type program struct {
	Name     string
	Src      string
	Col      psgc.Collector
	Capacity int
	Want     int
}

// Input sizes. gc-heavy runs at a capacity small enough that the collector
// does most of the work; mutator-heavy runs with collection disabled.
const (
	gcCapacity    = 16
	allocHeavyN   = 300 // workload.AllocHeavySrc: a nested pair per call, all live
	sharedDAGN    = 150 // workload.SharedDAGSrc: churn iterations over a shared tower
	churnN        = 300 // churnSrc: junk iterations beside a long-lived tower
	countN        = 5000
	chainN        = 3000
	pairsN        = 4000
	serveCapacity = 256
	// sizeJitter is the ±share by which the seed perturbs each size, so
	// that every seed has its own inputs and reference values while the
	// work per operation stays within about 1%.
	sizeJitter = 0.01
)

// churnSrc is the E5 generational program: a long-lived tower survives a
// loop of short-lived junk allocations.
func churnSrc(n int) string {
	return fmt.Sprintf(`
fun tower (n : int) : int * (int * (int * int)) =
  (n, (n + 1, (n + 2, n + 3)))
fun churn (state : int * (int * (int * (int * int)))) : int =
  let n = fst state in
  let keep = snd state in
  if0 n then fst keep + fst (snd (snd keep))
  else let junk = (n, (n, n)) in churn (n - 1, keep)
do churn (%d, tower 10)
`, n)
}

// countSrc is arithmetic recursion: one continuation per level, no data.
func countSrc(n int) string {
	return fmt.Sprintf("fun f (n : int) : int = if0 n then 0 else 1 + f (n - 1)\ndo f %d\n", n)
}

// chainSrc builds a chain of n closures, each calling the next.
func chainSrc(n int) string {
	return fmt.Sprintf(`
fun chain (n : int) : int -> int =
  if0 n then (fn (x : int) => x)
  else let g = chain (n - 1) in (fn (x : int) => g (x + 1))
do (chain %d) 0
`, n)
}

// factSrc is a tiny arithmetic program for the serve-mix hot set.
func factSrc(n int) string {
	return fmt.Sprintf("fun fact (n : int) : int = if0 n then 1 else n * fact (n - 1)\ndo fact %d\n", n)
}

// jitter perturbs n by up to ±sizeJitter, at least ±1.
func jitter(r *rand.Rand, n int) int {
	d := int(float64(n) * sizeJitter)
	if d < 1 {
		d = 1
	}
	return n - d + r.Intn(2*d+1)
}

// roundOf builds one round of a closed-loop workload: every source linked
// with every collector, in a seeded order.
func roundOf(r *rand.Rand, capacity int, srcs map[string]string, order []string) []*program {
	var ps []*program
	for _, name := range order {
		for _, col := range collectors {
			ps = append(ps, &program{Name: name, Src: srcs[name], Col: col, Capacity: capacity})
		}
	}
	r.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	return ps
}

// gcHeavyPrograms is the gc-heavy round: E1 alloc-heavy, the shared DAG and
// the E5 churn program under each collector at a small capacity.
func gcHeavyPrograms(seed int64) []*program {
	r := rand.New(rand.NewSource(seed))
	srcs := map[string]string{
		"alloc-heavy": workload.AllocHeavySrc(jitter(r, allocHeavyN)),
		"shared-dag":  workload.SharedDAGSrc(jitter(r, sharedDAGN)),
		"churn":       churnSrc(jitter(r, churnN)),
	}
	return roundOf(r, gcCapacity, srcs, []string{"alloc-heavy", "shared-dag", "churn"})
}

// mutatorHeavyPrograms is the mutator-heavy round: arithmetic recursion, a
// closure chain and pair building, each with collection disabled.
func mutatorHeavyPrograms(seed int64) []*program {
	r := rand.New(rand.NewSource(seed))
	srcs := map[string]string{
		"count": countSrc(jitter(r, countN)),
		"chain": chainSrc(jitter(r, chainN)),
		"pairs": workload.AllocHeavySrc(jitter(r, pairsN)),
	}
	return roundOf(r, 0, srcs, []string{"count", "chain", "pairs"})
}

// serve-mix shape. Arrivals are evenly spaced within each rate step and
// every missOneIn-th one is a miss; the seed draws the programs.
const (
	// missOneIn makes one arrival in missOneIn a never-seen program.
	missOneIn = 5
	// missEvalFuel is the rule that keeps a gen draw: the reference
	// evaluator must finish it within this many evaluation steps. It
	// filters on the source program only, never on compiled behaviour.
	missEvalFuel = 100_000
)

// missGen sizes the never-seen programs of serve-mix.
var missGen = gen.Config{MaxDepth: 3, MaxFuns: 2, Recursion: 4}

// missStrata are upper bounds on the source length of the never-seen
// programs: about the deciles of missGen's draws, the last one near their
// 95th percentile. A draw longer than that is not kept. Each run takes the
// same number of misses from each stratum, and within a stratum the same
// number under each collector. Compile time grows with source length, so
// this keeps the cost mix of a run's misses the same from seed to seed
// while the programs themselves differ.
var missStrata = []int{235, 281, 326, 381, 444, 506, 565, 632, 719, 800}

// rateStep is one fixed arrival rate of the serve-mix open loop.
type rateStep struct {
	Name string
	RPS  float64
	// Share is the share of the run's seconds spent at this rate.
	Share float64
}

// nominalRPS is the middle rate; the traced run's service, gate and
// open-loop latency metrics are taken there.
const nominalRPS = 60

var rateSteps = []rateStep{
	{Name: "low", RPS: nominalRPS / 2, Share: 0.15},
	{Name: "nominal", RPS: nominalRPS, Share: 0.7},
	{Name: "high", RPS: 1.25 * nominalRPS, Share: 0.15},
}

// Latency limits that a rate step must meet, on the p90 of requests timed
// from when they were due. A failed request counts as over the limit.
const (
	hitLimitMs  = 100
	missLimitMs = 1000
)

// closedShare is the share of a serve-mix run spent in the closed
// latency loop; the open loop's rate steps share the rest.
const closedShare = 0.5

// closedGroupsPerSecond bounds how many groups of missOneIn requests
// (one of them a miss) the closed loop can send in a second. A
// run draws that many groups per second of the loop; the loop ends early
// if it uses them all.
const closedGroupsPerSecond = 80

// request is one serve-mix request: its program and whether the program
// is one the fleet has not seen.
type request struct {
	Prog *program
	Miss bool
}

// arrival is one request of the open loop, due at a fixed time.
type arrival struct {
	request
	Due  time.Duration
	Step int
}

// schedule is a serve-mix run's inputs.
type schedule struct {
	// hot is the hot set, compiled by the fleet at set-up.
	hot []*program
	// sequence is the closed loop's requests, in order.
	sequence []request
	// arrivals are the open loop's requests, in order of due time.
	arrivals []arrival
}

// hotPool are the serve-mix hot set's programs, each at a size perturbed
// by the seed; each runs in well under a millisecond. The hot set is every
// one of them under every collector, so the cost mix of a run's hits is
// the same from seed to seed.
func hotPool(r *rand.Rand) []string {
	return []string{
		workload.AllocHeavySrc(jitter(r, 10)),
		workload.SharedDAGSrc(jitter(r, 3)),
		churnSrc(jitter(r, 10)),
		countSrc(jitter(r, 14)),
		chainSrc(jitter(r, 6)),
		factSrc(jitter(r, 10)),
	}
}

// serveSchedule draws the serve-mix inputs for a run of the given length:
// the hot set taking four requests in five,
// and one never-seen gen program for each remaining request of either
// loop. No program is a miss in both loops.
func serveSchedule(seed int64, seconds float64) *schedule {
	r := rand.New(rand.NewSource(seed))
	pool := hotPool(r)
	sc := &schedule{}
	for _, src := range pool {
		for _, col := range collectors {
			sc.hot = append(sc.hot, &program{Name: fmt.Sprintf("hot%d", len(sc.hot)), Src: src, Col: col, Capacity: serveCapacity})
		}
	}
	draw := func(i int) request {
		if i%missOneIn == missOneIn-1 {
			return request{Miss: true}
		}
		return request{Prog: sc.hot[r.Intn(len(sc.hot))]}
	}
	groups := int(closedGroupsPerSecond * closedShare * seconds)
	for i := 0; i < groups*missOneIn; i++ {
		sc.sequence = append(sc.sequence, draw(i))
	}
	var start time.Duration
	openSeconds := (1 - closedShare) * seconds
	for si, st := range rateSteps {
		n := int(st.RPS * st.Share * openSeconds)
		gap := time.Duration(float64(time.Second) / st.RPS)
		for i := 0; i < n; i++ {
			sc.arrivals = append(sc.arrivals, arrival{request: draw(i), Due: start + time.Duration(i)*gap, Step: si})
		}
		start += time.Duration(float64(n) * float64(gap))
	}
	seen := map[string]bool{}
	for _, src := range pool {
		seen[src] = true
	}
	misses := drawMisses(r, groups, seen, "lmiss")
	for i := range sc.sequence {
		if sc.sequence[i].Miss {
			sc.sequence[i].Prog, misses = misses[0], misses[1:]
		}
	}
	nmiss := 0
	for _, a := range sc.arrivals {
		if a.Miss {
			nmiss++
		}
	}
	misses = drawMisses(r, nmiss, seen, "miss")
	for i := range sc.arrivals {
		if sc.arrivals[i].Miss {
			sc.arrivals[i].Prog, misses = misses[0], misses[1:]
		}
	}
	return sc
}

// programs are every program the schedule sends, each once.
func (sc *schedule) programs() []*program {
	ps := append([]*program(nil), sc.hot...)
	for _, q := range sc.sequence {
		if q.Miss {
			ps = append(ps, q.Prog)
		}
	}
	for _, a := range sc.arrivals {
		if a.Miss {
			ps = append(ps, a.Prog)
		}
	}
	return ps
}

// drawMisses draws n distinct programs, none in seen, stratified by source
// length and collector (see missStrata), and adds them to seen. A draw is
// kept only if it is new, no longer than the last stratum bound, its
// stratum still needs programs, and its reference evaluation finishes
// within missEvalFuel steps. The programs come in blocks, each holding one
// program of every (stratum, collector) pair in a seeded order, so a loop
// that stops early has still sent the same mix.
func drawMisses(r *rand.Rand, n int, seen map[string]bool, prefix string) []*program {
	strata := make([][]*program, len(missStrata))
	quota := func(s int) int { return (n + len(missStrata) - 1 - s) / len(missStrata) }
	for kept := 0; kept < n; {
		p := gen.Program(r, missGen)
		src := p.String()
		s := sort.SearchInts(missStrata, len(src))
		if s == len(missStrata) || seen[src] || len(strata[s]) >= quota(s) {
			continue
		}
		ev := source.Evaluator{Fuel: missEvalFuel}
		if _, err := ev.RunInt(p); err != nil {
			continue
		}
		seen[src] = true
		col := collectors[len(strata[s])%len(collectors)]
		strata[s] = append(strata[s], &program{Src: src, Col: col, Capacity: serveCapacity})
		kept++
	}
	var ps []*program
	for b := 0; len(ps) < n; b++ {
		var block []*program
		for _, st := range strata {
			lo, hi := b*len(collectors), min((b+1)*len(collectors), len(st))
			if lo < hi {
				block = append(block, st[lo:hi]...)
			}
		}
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		ps = append(ps, block...)
	}
	for i, p := range ps {
		p.Name = fmt.Sprintf("%s%d", prefix, i)
	}
	return ps
}

// setReferences fills in each program's reference value from the source
// evaluator, which shares no code with the compiled pipeline.
func setReferences(ps []*program) error {
	for _, p := range ps {
		v, err := psgc.Interpret(p.Src)
		if err != nil {
			return fmt.Errorf("reference for %s: %w", p.Name, err)
		}
		p.Want = v
	}
	return nil
}
