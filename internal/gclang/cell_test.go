package gclang

import (
	"fmt"
	"math/rand"
	"testing"

	"psgc/internal/kinds"
	"psgc/internal/names"
	"psgc/internal/regions"
	"psgc/internal/tags"
)

// genCellValue builds a random storable value covering every packed form,
// including payloads past the inline word ranges (62-bit numbers, 30-bit
// offsets) so the cells-pool spill path is exercised.
func genCellValue(r *rand.Rand, depth int) Value {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return Num{N: r.Intn(2001) - 1000}
		case 1:
			// Full-range int: about half of these overflow the 62-bit
			// inline range and must spill into the cells pool.
			return Num{N: int(r.Uint64())}
		case 2:
			return AddrV{Addr: regions.Addr{Region: regions.Name(r.Intn(1 << 16)), Off: r.Intn(1 << 12)}}
		default:
			// Offsets at and past 2^30 cannot inline into a packed word.
			return AddrV{Addr: regions.Addr{Region: regions.Name(r.Intn(8)), Off: (1 << 30) - 2 + r.Intn(5)}}
		}
	}
	rv := func() Value { return genCellValue(r, depth-1) }
	rname := func() Region { return RVar{Name: names.Name(fmt.Sprintf("r%d", r.Intn(4)))} }
	switch r.Intn(10) {
	case 0:
		return PairV{L: rv(), R: rv()}
	case 1:
		return InlV{Val: rv()}
	case 2:
		return InrV{Val: rv()}
	case 3:
		return Var{Name: names.Name(fmt.Sprintf("x%d", r.Intn(8)))}
	case 4:
		return PackTag{Bound: "t", Kind: kinds.Omega{}, Tag: tags.Int{}, Val: rv(), Body: IntT{}}
	case 5:
		return PackAlpha{Bound: "a", Delta: []Region{rname()}, Hidden: IntT{}, Val: rv(), Body: IntT{}}
	case 6:
		return PackRegion{Bound: "p", Delta: []Region{rname()}, R: rname(), Val: rv(), Body: IntT{}}
	case 7:
		return TAppV{Val: rv(), Tags: []tags.Tag{tags.Int{}}, Rs: []Region{rname()}}
	case 8:
		return LamV{RParams: []names.Name{"r"}, Params: []Param{{Name: "x", Ty: IntT{}}},
			Body: HaltT{V: rv()}}
	default:
		return rv()
	}
}

// TestCellRoundTripRandom is the exhaustive pack/unpack property: for every
// generated value, Decode∘Encode is the identity (up to String, which pins
// the full structure) and the packed word accounting matches the boxed
// ValueWords the StepEvent identities are built on.
func TestCellRoundTripRandom(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	p := NewPools()
	for i := 0; i < 2000; i++ {
		v := genCellValue(r, 1+r.Intn(4))
		c := p.Encode(v)
		got := p.Decode(c)
		if got.String() != v.String() {
			t.Fatalf("round trip %d:\n  in:  %s\n  out: %s", i, v, got)
		}
		if cw, vw := p.CellWords(c), ValueWords(v); cw != vw {
			t.Fatalf("value %d (%s): CellWords %d, ValueWords %d", i, v, cw, vw)
		}
	}
}

// TestCellRoundTripNestedPackages pins the pool-append ordering: encoding
// a package whose payload is itself a pooled form must hand back a handle
// to the outer entry, not to whatever the nested Encode appended.
func TestCellRoundTripNestedPackages(t *testing.T) {
	inner := PairV{L: TAppV{Val: AddrV{Addr: regions.Addr{Region: regions.CD, Off: 3}},
		Tags: []tags.Tag{tags.Int{}}, Rs: []Region{RVar{Name: "r"}}}, R: Num{N: 2}}
	v := Value(inner)
	for i, b := range []names.Name{"ka", "ke", "k2", "k1"} {
		v = PackTag{Bound: b, Kind: kinds.Omega{}, Tag: tags.Int{}, Val: v, Body: IntT{}}
		p := NewPools()
		c := p.Encode(v)
		if got := p.Decode(c); got.String() != v.String() {
			t.Fatalf("depth %d:\n  in:  %s\n  out: %s", i+1, v, got)
		}
	}
}

// TestCellWordInlineBounds checks the 2-bit-tagged payload words at their
// inline limits: numbers within ±2^61 and addresses with region < 2^32,
// offset < 2^30 pack inline (no pool growth); anything past spills.
func TestCellWordInlineBounds(t *testing.T) {
	p := NewPools()
	inline := []Cell{
		NumCell(int(wordNumMax - 1)),
		NumCell(int(-wordNumMax)),
		NumCell(0),
		AddrCell(regions.Addr{Region: regions.Name(1<<32 - 1), Off: 1<<30 - 1}),
		AddrCell(regions.Addr{}),
	}
	for _, c := range inline {
		w := p.wordOf(c)
		if len(p.cells) != 0 {
			t.Fatalf("cell %+v spilled into the pool", c)
		}
		if got := p.cellOfWord(w); got != c {
			t.Fatalf("inline word round trip: %+v -> %#x -> %+v", c, w, got)
		}
	}
	spill := []Cell{
		NumCell(int(wordNumMax)),
		NumCell(int(-wordNumMax - 1)),
		AddrCell(regions.Addr{Region: regions.Name(1), Off: 1 << 30}),
	}
	for i, c := range spill {
		w := p.wordOf(c)
		if len(p.cells) != i+1 {
			t.Fatalf("cell %+v did not spill (pool %d)", c, len(p.cells))
		}
		if got := p.cellOfWord(w); got != c {
			t.Fatalf("spilled word round trip: %+v -> %#x -> %+v", c, w, got)
		}
	}
}

// TestCellDecodeNeverPanics feeds Decode corrupted cells — out-of-range
// pool handles, invalid word kinds, and the chaos fault's exact tag flip —
// and requires a poison value, never a panic.
func TestCellDecodeNeverPanics(t *testing.T) {
	p := NewPools()
	for tag := CellFree; tag <= CellTApp; tag++ {
		c := Cell{Tag: tag, A: 1 << 40, B: 1 << 40}
		_ = p.Decode(c) // must not panic on garbage handles
		_ = p.CellWords(c)
	}
	// Invalid word kind 3 inside a pair payload.
	bad := Cell{Tag: CellPair, A: 3, B: 7}
	if got := p.Decode(bad); got.String() != (PairV{L: corruptVar, R: corruptVar}).String() {
		t.Fatalf("invalid word kinds decoded to %s", got)
	}
	// The machine.corrupt fault flips the low tag bits of a stored cell;
	// every valid tag must map to a different tag and decode without
	// panicking.
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		c := p.Encode(genCellValue(r, 2))
		flipped := c
		flipped.Tag ^= 0x7
		if flipped.Tag == c.Tag {
			t.Fatalf("tag flip fixed point at %v", c.Tag)
		}
		_ = p.Decode(flipped)
		_ = p.CellWords(flipped)
	}
}

// TestEnvMachineStepLoopZeroAllocs gates the machine layer: a warm
// environment machine stepping a mutator loop (call, get, arith, set,
// branch) over packed cells must allocate nothing per iteration.
func TestEnvMachineStepLoopZeroAllocs(t *testing.T) {
	loop := LamV{RParams: []names.Name{"r"},
		Params: []Param{{Name: "x", Ty: IntT{}}, {Name: "a", Ty: IntT{}}},
		Body: LetT{X: "v", Op: GetOp{V: Var{Name: "a"}},
			Body: LetT{X: "y", Op: ArithOp{Kind: Sub, L: Var{Name: "x"}, R: Num{N: 1}},
				Body: SetT{Dst: Var{Name: "a"}, Src: Var{Name: "y"},
					Body: If0T{V: Var{Name: "y"},
						Then: HaltT{V: Var{Name: "y"}},
						Else: AppT{Fn: CodeAddr(0), Rs: []Region{RVar{Name: "r"}},
							Args: []Value{Var{Name: "y"}, Var{Name: "a"}}}}}}}}
	prog := Program{
		Code: []NamedFun{{Name: "loop", Fun: loop}},
		Main: LetRegionT{R: "r", Body: LetT{X: "a", Op: PutOp{R: RVar{Name: "r"}, V: Num{N: 0}},
			Body: AppT{Fn: CodeAddr(0), Rs: []Region{RVar{Name: "r"}},
				Args: []Value{Num{N: 1 << 30}, Var{Name: "a"}}}}}}
	m := NewEnvMachine(Base, prog, 0)
	// Warm: size the env maps and scratch buffers through several
	// iterations of the 5-step loop body.
	for i := 0; i < 200; i++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 5; i++ {
			if err := m.Step(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if m.Halted {
		t.Fatal("loop halted inside the measurement window")
	}
	if allocs != 0 {
		t.Fatalf("env machine loop allocated %.1f allocs/op, want 0", allocs)
	}
}
