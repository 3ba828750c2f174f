package regions

import (
	"testing"
	"testing/quick"
)

func TestPutGet(t *testing.T) {
	m := New[int](0)
	r := m.NewRegion()
	a1, err := m.Put(r, 10)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := m.Put(r, 20)
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Fatalf("two puts returned the same address %s", a1)
	}
	if v, _ := m.Get(a1); v != 10 {
		t.Errorf("Get(%s) = %d, want 10", a1, v)
	}
	if v, _ := m.Get(a2); v != 20 {
		t.Errorf("Get(%s) = %d, want 20", a2, v)
	}
}

func TestSet(t *testing.T) {
	m := New[string](0)
	r := m.NewRegion()
	a, _ := m.Put(r, "old")
	if err := m.Set(a, "new"); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Get(a); v != "new" {
		t.Errorf("Get after Set = %q", v)
	}
	if err := m.Set(Addr{Region: r, Off: 99}, "x"); err == nil {
		t.Errorf("Set at unallocated offset succeeded")
	}
}

func TestOnlyReclaims(t *testing.T) {
	m := New[int](0)
	r1 := m.NewRegion()
	r2 := m.NewRegion()
	a1, _ := m.Put(r1, 1)
	a2, _ := m.Put(r2, 2)
	if err := m.Only([]Name{r2}); err != nil {
		t.Fatal(err)
	}
	if m.Has(r1) {
		t.Errorf("region %s should be reclaimed", r1)
	}
	if !m.Has(r2) || !m.Has(CD) {
		t.Errorf("kept regions missing")
	}
	if _, err := m.Get(a1); err == nil {
		t.Errorf("read from reclaimed region succeeded")
	}
	if v, err := m.Get(a2); err != nil || v != 2 {
		t.Errorf("read from kept region: %v, %v", v, err)
	}
	if m.Stats().RegionsReclaimed != 1 || m.Stats().CellsReclaimed != 1 {
		t.Errorf("stats: %+v", m.Stats())
	}
}

func TestOnlyAlwaysKeepsCD(t *testing.T) {
	m := New[int](0)
	a, _ := m.Put(CD, 7)
	if err := m.Only(nil); err != nil {
		t.Fatal(err)
	}
	if v, err := m.Get(a); err != nil || v != 7 {
		t.Errorf("cd cell lost: %v, %v", v, err)
	}
}

func TestOnlyDeadRegionErrors(t *testing.T) {
	m := New[int](0)
	r := m.NewRegion()
	if err := m.Only(nil); err != nil {
		t.Fatal(err)
	}
	live := m.NewRegion()
	m.Put(live, 1)
	other := m.NewRegion()
	before := m.Stats()
	if err := m.Only([]Name{live, r}); err == nil {
		t.Errorf("only keeping a dead region should error")
	}
	// An erroring only has no effect: nothing is reclaimed or counted.
	if !m.Has(other) || m.LiveCells() != 1 || m.Stats() != before {
		t.Errorf("erroring Only mutated the store: has %v, live %d, stats %+v",
			m.Has(other), m.LiveCells(), m.Stats())
	}
}

func TestFullness(t *testing.T) {
	m := New[int](2)
	r := m.NewRegion()
	if m.Full(r) {
		t.Errorf("empty region reported full")
	}
	m.Put(r, 1)
	if m.Full(r) {
		t.Errorf("1/2 region reported full")
	}
	m.Put(r, 2)
	if !m.Full(r) {
		t.Errorf("2/2 region not reported full")
	}
	// Puts beyond capacity still succeed (allocation never blocks).
	if _, err := m.Put(r, 3); err != nil {
		t.Errorf("put beyond capacity failed: %v", err)
	}
	unlimited := New[int](0)
	u := unlimited.NewRegion()
	unlimited.Put(u, 1)
	if unlimited.Full(u) {
		t.Errorf("capacity 0 must never be full")
	}
}

func TestDeadRegionOps(t *testing.T) {
	m := New[int](0)
	r := m.NewRegion()
	m.Only(nil)
	if _, err := m.Put(r, 1); err == nil {
		t.Errorf("put into dead region succeeded")
	}
	if _, err := m.Get(Addr{Region: r, Off: 0}); err == nil {
		t.Errorf("get from dead region succeeded")
	}
	if err := m.Set(Addr{Region: r, Off: 0}, 1); err == nil {
		t.Errorf("set in dead region succeeded")
	}
}

func TestFreshRegionNamesNeverRepeat(t *testing.T) {
	m := New[int](0)
	seen := map[Name]bool{}
	for i := 0; i < 100; i++ {
		n := m.NewRegion()
		if seen[n] {
			t.Fatalf("region name %s repeated", n)
		}
		if n != Name(i+1) {
			t.Fatalf("region %d named %s, want dense ids from ν1", i, n)
		}
		seen[n] = true
		if i%3 == 0 {
			m.Only(nil) // reclaim everything; names must still be fresh
		}
	}
}

func TestCellsDeterministicOrder(t *testing.T) {
	m := New[int](0)
	r1 := m.NewRegion()
	r2 := m.NewRegion()
	m.Put(r1, 1)
	m.Put(r2, 2)
	m.Put(r1, 3)
	want := []Addr{{r1, 0}, {r1, 1}, {r2, 0}}
	got := m.Cells()
	if len(got) != len(want) {
		t.Fatalf("Cells() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Cells()[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if rs := m.Regions(); len(rs) != 3 || rs[0] != CD || rs[1] != r1 || rs[2] != r2 {
		t.Fatalf("Regions() = %v, want creation order [cd %s %s]", rs, r1, r2)
	}
}

func TestStatsCounts(t *testing.T) {
	m := New[int](0)
	r := m.NewRegion()
	a, _ := m.Put(r, 1)
	m.Put(r, 2)
	m.Get(a)
	m.Set(a, 3)
	s := m.Stats()
	if s.Puts != 2 || s.Gets != 1 || s.Sets != 1 || s.RegionsCreated != 1 {
		t.Errorf("stats: %+v", s)
	}
	if s.MaxLiveCells != 2 {
		t.Errorf("MaxLiveCells = %d, want 2", s.MaxLiveCells)
	}
}

// Property: any interleaving of puts into two regions preserves every
// value at the address put returned (no aliasing between regions, no
// overwrites by allocation).
func TestPutPreservesValuesProperty(t *testing.T) {
	f := func(vals []int16, intoFirst []bool) bool {
		m := New[int](0)
		r1, r2 := m.NewRegion(), m.NewRegion()
		type rec struct {
			a Addr
			v int
		}
		var recs []rec
		for i, v := range vals {
			r := r1
			if i < len(intoFirst) && !intoFirst[i] {
				r = r2
			}
			a, err := m.Put(r, int(v))
			if err != nil {
				return false
			}
			recs = append(recs, rec{a, int(v)})
		}
		for _, rc := range recs {
			got, err := m.Get(rc.a)
			if err != nil || got != rc.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLiveCellsExcludesCD(t *testing.T) {
	m := New[int](0)
	m.Put(CD, 1)
	r := m.NewRegion()
	m.Put(r, 2)
	if got := m.LiveCells(); got != 1 {
		t.Errorf("LiveCells = %d, want 1", got)
	}
}

func TestSortedNames(t *testing.T) {
	got := SortedNames([]Name{2, 1, 3})
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("SortedNames = %v", got)
	}
}

// onStore runs f against a fresh map store of the given capacity, as a
// subtest named after the store's backend.
func onStore(t *testing.T, capacity int, f func(t *testing.T, s Store[int])) {
	t.Helper()
	t.Run(BackendMap.String(), func(t *testing.T) {
		f(t, New[int](capacity))
	})
}

// TestBackendConformance walks one store through the Store contract
// end to end: dense region ids, interleaved puts, Set, LiveCells excluding
// cd, Only, exact counters, and an erroring Only that leaves the counters
// alone.
func TestBackendConformance(t *testing.T) {
	onStore(t, 0, func(t *testing.T, s Store[int]) {
		r1 := s.NewRegion()
		r2 := s.NewRegion()
		if r1 != 1 || r2 != 2 {
			t.Fatalf("region ids = %d, %d; want 1, 2", r1, r2)
		}
		a1, err := s.Put(r1, 10)
		if err != nil {
			t.Fatal(err)
		}
		a2, _ := s.Put(r2, 20)
		a3, _ := s.Put(r1, 30)
		ac, _ := s.Put(CD, 99)
		for _, c := range []struct {
			a    Addr
			want int
		}{{a1, 10}, {a2, 20}, {a3, 30}, {ac, 99}} {
			if v, err := s.Get(c.a); err != nil || v != c.want {
				t.Errorf("Get(%s) = %d, %v; want %d", c.a, v, err, c.want)
			}
		}
		if err := s.Set(a3, 31); err != nil {
			t.Fatal(err)
		}
		if v, _ := s.Get(a3); v != 31 {
			t.Errorf("Get after Set = %d", v)
		}
		if got := s.LiveCells(); got != 3 {
			t.Errorf("LiveCells = %d, want 3 (cd excluded)", got)
		}
		if got := s.Size(r1); got != 2 {
			t.Errorf("Size(r1) = %d, want 2", got)
		}
		if err := s.Only([]Name{r1}); err != nil {
			t.Fatal(err)
		}
		if s.Has(r2) || !s.Has(r1) || !s.Has(CD) {
			t.Errorf("Only kept the wrong regions")
		}
		if v, err := s.Get(a1); err != nil || v != 10 {
			t.Errorf("survivor cell: %d, %v", v, err)
		}
		if v, err := s.Get(ac); err != nil || v != 99 {
			t.Errorf("cd cell after Only: %d, %v", v, err)
		}
		if _, err := s.Get(a2); err == nil {
			t.Errorf("read from reclaimed region succeeded")
		}
		st := s.Stats()
		want := Stats{Puts: 4, Gets: 7, Sets: 1, RegionsCreated: 2,
			RegionsReclaimed: 1, CellsReclaimed: 1, MaxLiveCells: 3}
		if st != want {
			t.Errorf("stats = %+v, want %+v", st, want)
		}
		if err := s.Only([]Name{r2}); err == nil {
			t.Errorf("only keeping a dead region should error")
		}
		if s.Stats() != st {
			t.Errorf("erroring Only mutated stats: %+v", s.Stats())
		}
	})
}

// TestBackendPeekCorrupt checks that Peek and Corrupt are bookkeeping, not
// traffic: they move no counter, and they refuse addresses that name no
// live cell.
func TestBackendPeekCorrupt(t *testing.T) {
	onStore(t, 0, func(t *testing.T, s Store[int]) {
		r := s.NewRegion()
		a, _ := s.Put(r, 7)
		before := s.Stats()
		if v, ok := s.Peek(a); !ok || v != 7 {
			t.Errorf("Peek = %d, %v", v, ok)
		}
		if !s.Corrupt(a, 8) {
			t.Errorf("Corrupt of live cell failed")
		}
		if s.Stats() != before {
			t.Errorf("Peek/Corrupt moved counters: %+v", s.Stats())
		}
		if v, _ := s.Get(a); v != 8 {
			t.Errorf("corrupted cell reads %d", v)
		}
		if _, ok := s.Peek(Addr{Region: r, Off: 99}); ok {
			t.Errorf("Peek of unallocated cell succeeded")
		}
		if s.Corrupt(Addr{Region: 42, Off: 0}, 1) {
			t.Errorf("Corrupt of dead region succeeded")
		}
	})
}

func TestBackendFullnessAndAutoGrow(t *testing.T) {
	onStore(t, 2, func(t *testing.T, s Store[int]) {
		s.SetAutoGrow(true)
		r := s.NewRegion()
		s.Put(r, 1)
		if s.Full(r) {
			t.Errorf("1/2 region reported full")
		}
		s.Put(r, 2)
		if !s.Full(r) {
			t.Errorf("2/2 region not reported full")
		}
		// 2 survivors > capacity/2 = 1, so the capacity doubles to 4.
		if err := s.Only([]Name{r}); err != nil {
			t.Fatal(err)
		}
		if got := s.Capacity(); got != 4 {
			t.Errorf("capacity after growth = %d, want 4", got)
		}
		if s.Full(r) {
			t.Errorf("region full after growth")
		}
	})
}

func TestBackendCellsOrder(t *testing.T) {
	onStore(t, 0, func(t *testing.T, s Store[int]) {
		r1 := s.NewRegion()
		r2 := s.NewRegion()
		s.Put(r1, 1)
		s.Put(r2, 2)
		s.Put(r1, 3)
		want := []Addr{{r1, 0}, {r1, 1}, {r2, 0}}
		got := s.Cells()
		if len(got) != len(want) {
			t.Fatalf("Cells() = %v", got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Cells()[%d] = %v, want %v", i, got[i], want[i])
			}
		}
	})
}
