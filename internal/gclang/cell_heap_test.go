package gclang_test

import (
	"testing"

	"psgc/internal/gclang"
	"psgc/internal/regions"
	"psgc/internal/workload"
)

// TestCellRoundTripProgramHeaps runs real compiled workloads to completion,
// then round-trips every live heap cell through a fresh set of pools:
// decode out of the machine's pools, re-encode into empty ones, decode
// again. The final heaps of actual
// collector executions are the richest cell population we have (forwarded
// sums, nested closure packages, translucent applications), so this is
// the end-to-end complement of the random-value property. Subtests are
// named dialect/store.
func TestCellRoundTripProgramHeaps(t *testing.T) {
	for _, d := range []gclang.Dialect{gclang.Base, gclang.Forw, gclang.Gen} {
		t.Run(d.String()+"/"+regions.BackendMap.String(), func(t *testing.T) {
			c, err := workload.BuildCollectOnce(d, workload.DAG, 5)
			if err != nil {
				t.Fatal(err)
			}
			m := gclang.NewEnvMachine(d, c.Prog, 0)
			if _, err := gclang.Run(m, 2_000_000); err != nil {
				t.Fatal(err)
			}
			fresh := gclang.NewPools()
			cells := 0
			for _, a := range m.Mem.Cells() {
				cell, ok := m.Mem.Peek(a)
				if !ok {
					t.Fatalf("live cell %v not peekable", a)
				}
				v := m.Pool.Decode(cell)
				re := fresh.Encode(v)
				if got := fresh.Decode(re).String(); got != v.String() {
					t.Fatalf("cell %v:\n  in:  %s\n  out: %s", a, v, got)
				}
				if cw, vw := fresh.CellWords(re), gclang.ValueWords(v); cw != vw {
					t.Fatalf("cell %v (%s): CellWords %d, ValueWords %d", a, v, cw, vw)
				}
				cells++
			}
			if cells == 0 {
				t.Fatal("workload left no live cells to round-trip")
			}
		})
	}
}
