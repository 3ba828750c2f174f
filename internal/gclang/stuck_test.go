package gclang

import (
	"errors"
	"testing"

	"psgc/internal/tags"
)

// The machine must fail loudly — never panic, never silently continue —
// on ill-formed states that the typechecker would have rejected. These
// are the "untyped programs get stuck" half of the progress story.

func runRaw(t *testing.T, d Dialect, main Term) error {
	t.Helper()
	m := NewMachine(d, Program{Main: main}, 0)
	_, err := Run(m, 1000)
	return err
}

func TestMachineStuckCases(t *testing.T) {
	cases := []struct {
		name string
		d    Dialect
		main Term
	}{
		{"call non-address", Base, AppT{Fn: Num{N: 1}}},
		{"proj from int", Base, LetT{X: "x", Op: ProjOp{I: 1, V: Num{N: 1}}, Body: HaltT{V: Num{N: 0}}}},
		{"get from int", Base, LetT{X: "x", Op: GetOp{V: Num{N: 1}}, Body: HaltT{V: Num{N: 0}}}},
		{"put into unresolved region", Base, LetT{X: "x", Op: PutOp{R: RVar{Name: "r"}, V: Num{N: 1}}, Body: HaltT{V: Num{N: 0}}}},
		{"arith on pair", Base, LetT{X: "x", Op: ArithOp{Kind: Add, L: PairV{L: Num{N: 1}, R: Num{N: 2}}, R: Num{N: 1}}, Body: HaltT{V: Num{N: 0}}}},
		{"if0 on pair", Base, If0T{V: PairV{L: Num{N: 1}, R: Num{N: 2}}, Then: HaltT{V: Num{N: 0}}, Else: HaltT{V: Num{N: 0}}}},
		{"open non-package", Base, OpenTagT{V: Num{N: 3}, T: "t", X: "x", Body: HaltT{V: Num{N: 0}}}},
		{"typecase on open tag", Base, TypecaseT{Tag: tags.Var{Name: "t"},
			IntArm: HaltT{V: Num{N: 0}}, TL: "tl", LamArm: HaltT{V: Num{N: 0}},
			T1: "a", T2: "b", ProdArm: HaltT{V: Num{N: 0}}, Te: "te", ExistArm: HaltT{V: Num{N: 0}}}},
		{"ifleft on int", Forw, IfLeftT{X: "x", V: Num{N: 1}, L: HaltT{V: Num{N: 0}}, R: HaltT{V: Num{N: 0}}}},
		{"strip int", Forw, LetT{X: "x", Op: StripOp{V: Num{N: 1}}, Body: HaltT{V: Num{N: 0}}}},
		{"set non-address", Forw, SetT{Dst: Num{N: 1}, Src: Num{N: 2}, Body: HaltT{V: Num{N: 0}}}},
		{"ifreg on vars", Gen, IfRegT{R1: RVar{Name: "a"}, R2: RVar{Name: "b"}, Then: HaltT{V: Num{N: 0}}, Else: HaltT{V: Num{N: 0}}}},
		{"open non-region-package", Gen, OpenRegionT{V: Num{N: 1}, R: "r", X: "x", Body: HaltT{V: Num{N: 0}}}},
	}
	for _, c := range cases {
		err := runRaw(t, c.d, c.main)
		if err == nil {
			t.Errorf("%s: machine did not report an error", c.name)
			continue
		}
		if !errors.Is(err, ErrStuck) {
			t.Errorf("%s: error %v is not ErrStuck", c.name, err)
		}
	}
}

func TestMachineDanglingAddress(t *testing.T) {
	// Reading a reclaimed cell must error, not return stale data.
	m := NewMachine(Base, Program{Main: HaltT{V: Num{N: 0}}}, 0)
	r := m.Mem.NewRegion()
	a, _ := m.Mem.Put(r, m.Pool.Encode(Num{N: 7}))
	m.Mem.Only(nil)
	m.Term = LetT{X: "x", Op: GetOp{V: AddrV{Addr: a}}, Body: HaltT{V: Num{N: 0}}}
	if err := m.Step(); err == nil {
		t.Errorf("dangling get succeeded")
	}
}

func TestMachineFuel(t *testing.T) {
	// A self-looping code block runs out of fuel, not stack.
	loop := LamV{RParams: []nameN{"r"}, Params: []Param{{Name: "x", Ty: IntT{}}},
		Body: AppT{Fn: CodeAddr(0), Rs: []Region{RVar{Name: "r"}}, Args: []Value{Var{Name: "x"}}}}
	p := Program{Code: []NamedFun{{Name: "loop", Fun: loop}},
		Main: LetRegionT{R: "r", Body: AppT{Fn: CodeAddr(0), Rs: []Region{RVar{Name: "r"}}, Args: []Value{Num{N: 0}}}}}
	m := NewMachine(Base, p, 0)
	if _, err := Run(m, 500); !errors.Is(err, ErrFuel) {
		t.Errorf("want ErrFuel, got %v", err)
	}
}

func TestStepAfterHalt(t *testing.T) {
	m := NewMachine(Base, Program{Main: HaltT{V: Num{N: 3}}}, 0)
	if _, err := Run(m, 10); err != nil {
		t.Fatal(err)
	}
	if err := m.Step(); err == nil {
		t.Errorf("step after halt succeeded")
	}
}

func TestGhostRequiresElaboration(t *testing.T) {
	// Running an unelaborated put in ghost mode must fail loudly rather
	// than corrupt Ψ.
	m := NewMachine(Base, Program{Main: LetRegionT{R: "r",
		Body: LetT{X: "x", Op: PutOp{R: RVar{Name: "r"}, V: Num{N: 1}},
			Body: HaltT{V: Num{N: 0}}}}}, 0)
	m.Ghost = true
	_, err := Run(m, 100)
	if err == nil {
		t.Errorf("ghost mode accepted an unelaborated put")
	}
}

func TestCheckStateRequiresGhost(t *testing.T) {
	m := NewMachine(Base, Program{Main: HaltT{V: Num{N: 0}}}, 0)
	if err := m.CheckState(); err == nil {
		t.Errorf("CheckState without ghost mode succeeded")
	}
}

func TestReachabilityThroughCells(t *testing.T) {
	m := NewMachine(Base, Program{Main: HaltT{V: Num{N: 0}}}, 0)
	r := m.Mem.NewRegion()
	inner, _ := m.Mem.Put(r, m.Pool.Encode(Num{N: 1}))
	outer, _ := m.Mem.Put(r, m.Pool.Encode(PairV{L: AddrV{Addr: inner}, R: Num{N: 2}}))
	unrelated, _ := m.Mem.Put(r, m.Pool.Encode(Num{N: 9}))
	m.Term = HaltT{V: AddrV{Addr: outer}}
	reach := m.Reachable()
	if !reach[outer] || !reach[inner] {
		t.Errorf("transitive reachability broken: %v", reach)
	}
	if reach[unrelated] {
		t.Errorf("unreachable cell reported reachable")
	}
}
