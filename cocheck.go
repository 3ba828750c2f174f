package psgc

import (
	"fmt"

	"psgc/internal/gclang"
)

// Divergence describes one observed disagreement between the environment
// machine and the substitution oracle during a co-checked run.
type Divergence struct {
	// Step is the oracle's step count when the disagreement was observed.
	Step int `json:"step"`
	// Detail says what disagreed (pending call, step parity, memory
	// counters, final result, or a heap cell).
	Detail string `json:"detail"`
}

func (d Divergence) String() string {
	return fmt.Sprintf("diverged at step %d: %s", d.Step, d.Detail)
}

// diverged reports a co-check divergence to OnDivergence, if set.
func (o *RunOptions) diverged(step int, detail string) {
	if o.OnDivergence != nil {
		o.OnDivergence(Divergence{Step: step, Detail: detail})
	}
}

// stepShadow steps the co-check shadow after the oracle has stepped and
// returns a non-empty description of the first disagreement.
func stepShadow(oracle *gclang.Machine, shadow *gclang.EnvMachine) string {
	if err := shadow.Step(); err != nil {
		return fmt.Sprintf("env machine error: %v", err)
	}
	if shadow.Steps != oracle.Steps || shadow.Halted != oracle.Halted {
		return fmt.Sprintf("step/halt: oracle (%d,%v) env (%d,%v)",
			oracle.Steps, oracle.Halted, shadow.Steps, shadow.Halted)
	}
	if os, ss := oracle.Mem.Stats(), shadow.Mem.Stats(); os != ss {
		return fmt.Sprintf("memory counters: oracle %+v env %+v", os, ss)
	}
	return ""
}

// compareHalt compares the halted machines' results and full heaps,
// returning a non-empty description of the first mismatch. Corruption the
// mutator never read surfaces here: the counters agree, but a cell differs.
func compareHalt(oracle *gclang.Machine, shadow *gclang.EnvMachine) string {
	if or, sr := oracle.Result.String(), shadow.Result.String(); or != sr {
		return fmt.Sprintf("result: oracle %s env %s", or, sr)
	}
	oc, sc := oracle.Mem.Cells(), shadow.Mem.Cells()
	if len(oc) != len(sc) {
		return fmt.Sprintf("heap size: oracle %d cells env %d cells", len(oc), len(sc))
	}
	for i, a := range oc {
		if sc[i] != a {
			return fmt.Sprintf("heap shape: cell %d at %v (oracle) vs %v (env)", i, a, sc[i])
		}
		ov, err1 := oracle.Mem.Get(a)
		sv, err2 := shadow.Mem.Get(a)
		if err1 != nil || err2 != nil {
			return fmt.Sprintf("heap read at %v: oracle err %v env err %v", a, err1, err2)
		}
		// Pool handles are machine-local, so packed cells are compared by
		// decoding each side through its own pools — which makes this walk a
		// differential test of the packing itself, not just of the heap.
		if os, ss := oracle.Pool.Decode(ov).String(), shadow.Pool.Decode(sv).String(); os != ss {
			return fmt.Sprintf("heap cell %v: oracle %s env %s", a, os, ss)
		}
	}
	return ""
}
