package baseline

import (
	"testing"

	"psgc/internal/clos"
	"psgc/internal/closconv"
	"psgc/internal/cps"
	"psgc/internal/gclang"
	"psgc/internal/regions"
	"psgc/internal/source"
	"psgc/internal/tags"
)

var pairTag = tags.Prod{L: tags.Int{}, R: tags.Int{}}

// buildDag allocates the braided DAG of §7 in a fresh region: a leaf
// (1, 2), then depth nodes whose components are both the previous node.
func buildDag(mem *regions.Memory[gclang.Value], depth int) (gclang.Value, tags.Tag) {
	r := mem.NewRegion()
	leaf, _ := mem.Put(r, gclang.PairV{L: gclang.Num{N: 1}, R: gclang.Num{N: 2}})
	node, tag := gclang.Value(gclang.AddrV{Addr: leaf}), tags.Tag(pairTag)
	for i := 0; i < depth; i++ {
		a, _ := mem.Put(r, gclang.PairV{L: node, R: node})
		node, tag = gclang.AddrV{Addr: a}, tags.Prod{L: tag, R: tag}
	}
	return node, tag
}

func TestCopyWithoutForwardingDuplicates(t *testing.T) {
	for depth := 2; depth <= 10; depth++ {
		mem := regions.New[gclang.Value](0)
		root, tag := buildDag(mem, depth)
		_, _, st, err := CopyRoot(mem, tag, root, false)
		if err != nil {
			t.Fatal(err)
		}
		if want := 1<<(depth+1) - 1; st.Copied != want {
			t.Errorf("depth %d: copied %d cells, want %d (one per path)", depth, st.Copied, want)
		}
	}
}

func TestCopyWithForwardingShares(t *testing.T) {
	for depth := 2; depth <= 10; depth++ {
		mem := regions.New[gclang.Value](0)
		root, tag := buildDag(mem, depth)
		nr, to, st, err := CopyRoot(mem, tag, root, true)
		if err != nil {
			t.Fatal(err)
		}
		if st.Copied != depth+1 {
			t.Errorf("depth %d: copied %d cells, want %d (one per node)", depth, st.Copied, depth+1)
		}
		// The copied root's components must alias.
		addr := nr.(gclang.AddrV)
		if addr.Addr.Region != to {
			t.Errorf("depth %d: root not in to-space", depth)
		}
		cell, _ := mem.Get(addr.Addr)
		pair := cell.(gclang.PairV)
		if pair.L != pair.R {
			t.Errorf("depth %d: components no longer alias: %s vs %s", depth, pair.L, pair.R)
		}
	}
}

func TestCopyPackage(t *testing.T) {
	mem := regions.New[gclang.Value](0)
	r := mem.NewRegion()
	inner, _ := mem.Put(r, gclang.PairV{L: gclang.Num{N: 3}, R: gclang.Num{N: 4}})
	pk, _ := mem.Put(r, gclang.PackTag{Bound: "t", Tag: pairTag,
		Val: gclang.AddrV{Addr: inner}, Body: nil})
	cloTag := tags.Exist{Bound: "t", Body: tags.Var{Name: "t"}}
	_, _, st, err := CopyRoot(mem, cloTag, gclang.AddrV{Addr: pk}, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.Copied != 2 {
		t.Errorf("copied %d, want 2", st.Copied)
	}
}

func TestSpaceOverhead(t *testing.T) {
	m := SpaceOverhead(1000)
	if m.PairedWords != 1000 {
		t.Errorf("paired overhead = %d, want 1000", m.PairedWords)
	}
	if m.TagBitsWords != 16 {
		t.Errorf("tag-bit overhead = %d words, want 16", m.TagBitsWords)
	}
	if m.PairedWords <= m.TagBitsWords {
		t.Errorf("the paper's scheme should be cheaper")
	}
}

func TestSpecializationCountGrowsWithProgram(t *testing.T) {
	small := clos.Program{Main: clos.Halt{V: clos.Num{N: 0}}}
	if n := SpecializationCount(small); n != 0 {
		t.Errorf("empty program needs %d specializations, want 0", n)
	}
	// A program with several distinct types needs several specialized
	// copy functions under monomorphization; the ITA collector stays at 6.
	src := `
fun f (p : int * int) : int = fst p
fun g (q : (int * int) * int) : int = f (fst q)
do g ((1, 2), 3) + f (4, 5)
`
	p := source.MustParse(src)
	lp := closconv.MustConvert(cps.MustConvert(p))
	n := SpecializationCount(lp)
	if n <= ITACollectorBlocks {
		t.Errorf("specializations = %d, expected more than the constant %d ITA blocks",
			n, ITACollectorBlocks)
	}
}
