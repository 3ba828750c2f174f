// Sharing: the §7 motivation for forwarding pointers, demonstrated on the
// λGC heap directly. A braided DAG of depth n has n+1 nodes but 2^n paths;
// the basic collector of Fig. 12 copies once per path (turning the DAG
// into a tree), while the forwarding-pointer collector of Fig. 9 copies
// each node once.
package main

import (
	"fmt"
	"log"

	"psgc/internal/collector"
	"psgc/internal/gclang"
	"psgc/internal/names"
	"psgc/internal/regions"
	"psgc/internal/tags"
)

// collectOnce builds a braided DAG of the given depth in a fresh region,
// runs one full collection via the chosen collector, and reports the
// number of cells in the to-space afterwards.
func collectOnce(depth int, forw bool) (copied, steps int) {
	l := &collector.Layout{}
	var gcAddr gclang.AddrV
	dialect := gclang.Base
	if forw {
		f := collector.BuildForw(l)
		gcAddr = l.Addr(f.GC)
		dialect = gclang.Forw
	} else {
		b := collector.BuildBasic(l)
		gcAddr = l.Addr(b.GC)
	}

	// Build the heap-allocating prefix of the main term.
	var prefix []func(gclang.Term) gclang.Term
	idx := 0
	alloc := func(v gclang.Value) gclang.Value {
		x := names.Name(fmt.Sprintf("n%d", idx))
		idx++
		if forw {
			v = gclang.InlV{Val: v}
		}
		prefix = append(prefix, func(e gclang.Term) gclang.Term {
			return gclang.LetT{X: x, Op: gclang.PutOp{R: gclang.RVar{Name: "r0"}, V: v}, Body: e}
		})
		return gclang.Var{Name: x}
	}
	node := alloc(gclang.PairV{L: gclang.Num{N: 1}, R: gclang.Num{N: 2}})
	tag := tags.Tag(tags.Prod{L: tags.Int{}, R: tags.Int{}})
	for i := 0; i < depth; i++ {
		node = alloc(gclang.PairV{L: node, R: node})
		tag = tags.Prod{L: tag, R: tag}
	}

	// finish: receive the copied root and halt.
	l.Add("finish", gclang.LamV{
		RParams: []names.Name{"r"},
		Params: []gclang.Param{{Name: "x",
			Ty: gclang.MT{Rs: []gclang.Region{gclang.RVar{Name: "r"}}, Tag: tag}}},
		Body: gclang.HaltT{V: gclang.Num{N: 0}},
	})

	body := gclang.Term(gclang.AppT{
		Fn: gcAddr, Tags: []tags.Tag{tag},
		Rs:   []gclang.Region{gclang.RVar{Name: "r0"}},
		Args: []gclang.Value{l.Addr("finish"), node},
	})
	for i := len(prefix) - 1; i >= 0; i-- {
		body = prefix[i](body)
	}
	prog := gclang.Program{Code: l.Funs, Main: gclang.LetRegionT{R: "r0", Body: body}}

	checker := &gclang.Checker{Dialect: dialect}
	elab, _, err := checker.CheckProgram(prog)
	if err != nil {
		log.Fatalf("collector program does not typecheck: %v", err)
	}
	m := gclang.NewMachine(dialect, elab, 0)
	if _, err := gclang.Run(m, 500_000_000); err != nil {
		log.Fatal(err)
	}
	// After collection only the to-space survives (plus cd).
	live := 0
	for _, rn := range m.Mem.Regions() {
		if rn != regions.CD {
			live += m.Mem.Size(rn)
		}
	}
	return live, m.Steps
}

func main() {
	fmt.Println("Sharing preservation (paper §7, experiment E3)")
	fmt.Println("depth | nodes | basic copies | forwarding copies")
	for depth := 1; depth <= 12; depth++ {
		basic, _ := collectOnce(depth, false)
		forw, _ := collectOnce(depth, true)
		fmt.Printf("%5d | %5d | %12d | %17d\n", depth, depth+1, basic, forw)
	}
	fmt.Println()
	fmt.Println("The basic collector's copies grow as 2^(depth+1)-1 (the DAG")
	fmt.Println("becomes a tree); the forwarding collector's stay at depth+1.")
}
