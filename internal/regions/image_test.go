package regions

import "testing"

// buildStore drives a store through a representative history: code
// installs, region churn, interleaved puts, sets, and reclamations. The
// store is traced so the same history can be replayed.
func buildStore(t *testing.T) *Trace[int] {
	t.Helper()
	s := NewTrace[int](freshStore())
	for i := 0; i < 3; i++ {
		if _, err := s.Put(CD, 100+i); err != nil {
			t.Fatal(err)
		}
	}
	r1 := s.NewRegion()
	r2 := s.NewRegion()
	for i := 0; i < 5; i++ {
		if _, err := s.Put(r1, i); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Put(r2, 10*i); err != nil { // interleaved: breaks contiguity
			t.Fatal(err)
		}
	}
	if err := s.Set(Addr{Region: r1, Off: 2}, 999); err != nil {
		t.Fatal(err)
	}
	if err := s.Only([]Name{r2}); err != nil {
		t.Fatal(err)
	}
	r3 := s.NewRegion()
	for i := 0; i < 7; i++ {
		if _, err := s.Put(r3, 1000+i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Get(Addr{Region: r3, Off: 0}); err != nil {
		t.Fatal(err)
	}
	return s
}

// freshStore is the empty store buildStore starts from.
func freshStore() Store[int] {
	s := New[int](4)
	s.SetAutoGrow(true)
	return s
}

func sameObservable(t *testing.T, want, got Store[int]) {
	t.Helper()
	if want.Stats() != got.Stats() {
		t.Fatalf("stats: want %+v got %+v", want.Stats(), got.Stats())
	}
	if want.LiveCells() != got.LiveCells() {
		t.Fatalf("live cells: want %d got %d", want.LiveCells(), got.LiveCells())
	}
	if want.Capacity() != got.Capacity() {
		t.Fatalf("capacity: want %d got %d", want.Capacity(), got.Capacity())
	}
	wc, gc := want.Cells(), got.Cells()
	if len(wc) != len(gc) {
		t.Fatalf("cell count: want %d got %d", len(wc), len(gc))
	}
	for i, a := range wc {
		if gc[i] != a {
			t.Fatalf("cell %d: want addr %v got %v", i, a, gc[i])
		}
		wv, _ := want.Peek(a)
		gv, ok := got.Peek(a)
		if !ok || wv != gv {
			t.Fatalf("cell %v: want %d got %d (ok=%v)", a, wv, gv, ok)
		}
	}
}

// sameFuture drives both stores through the same post-restore history and
// requires identical addresses and counters — the property resumed runs
// rely on.
func sameFuture(t *testing.T, a, b Store[int]) {
	t.Helper()
	na, nb := a.NewRegion(), b.NewRegion()
	if na != nb {
		t.Fatalf("fresh region name: %v vs %v", na, nb)
	}
	for i := 0; i < 3; i++ {
		aa, err1 := a.Put(na, i)
		ab, err2 := b.Put(nb, i)
		if err1 != nil || err2 != nil || aa != ab {
			t.Fatalf("put %d: %v/%v addr %v vs %v", i, err1, err2, aa, ab)
		}
	}
	if err := a.Only([]Name{na}); err != nil {
		t.Fatal(err)
	}
	if err := b.Only([]Name{nb}); err != nil {
		t.Fatal(err)
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("post-restore stats: %+v vs %+v", a.Stats(), b.Stats())
	}
}

// checkRebuild rebuilds a store from buildStore's history and requires the
// rebuilt store to match the original observably and to keep matching a
// second rebuild as both evolve.
func checkRebuild(t *testing.T, rebuild func(t *testing.T, src *Trace[int]) (Store[int], error)) {
	t.Helper()
	src := buildStore(t)
	got, err := rebuild(t, src)
	if err != nil {
		t.Fatal(err)
	}
	if !got.AutoGrow() {
		t.Fatal("rebuild lost the auto-grow flag")
	}
	sameObservable(t, src, got)
	// A second rebuild must still work (the image and the trace are not
	// consumed) and the two must evolve identically.
	again, err := rebuild(t, src)
	if err != nil {
		t.Fatal(err)
	}
	sameFuture(t, got, again)
}

// TestImageRoundTripAllBackendPairs snapshots a store and restores the
// image. The subtest is named source_to_destination store; the map is the
// only store, so map_to_map is the one pair.
func TestImageRoundTripAllBackendPairs(t *testing.T) {
	b := BackendMap
	t.Run(b.String()+"_to_"+b.String(), func(t *testing.T) {
		checkRebuild(t, func(t *testing.T, src *Trace[int]) (Store[int], error) {
			img := Snapshot(src.Inner)
			if err := img.Validate(); err != nil {
				t.Fatalf("snapshot does not validate: %v", err)
			}
			if !img.AutoGrow {
				t.Fatal("snapshot lost the auto-grow flag")
			}
			return Restore(b, img)
		})
	})
}

// TestTraceReplayAcrossBackends replays a recorded op trace on a fresh
// store and requires the same heap and counters as the recording.
func TestTraceReplayAcrossBackends(t *testing.T) {
	checkRebuild(t, func(t *testing.T, src *Trace[int]) (Store[int], error) {
		s := freshStore()
		return s, Replay(src.Ops, s)
	})
}

func TestImageRestoreMatchesOriginalFuture(t *testing.T) {
	// The restored store and the original must issue identical names,
	// addresses, and counters from here on.
	orig := buildStore(t).Inner
	restored, err := Restore(BackendMap, Snapshot(orig))
	if err != nil {
		t.Fatal(err)
	}
	sameFuture(t, orig, restored)
}

func TestImageValidateRejectsCorruption(t *testing.T) {
	fresh := func() Image[int] { return Snapshot(buildStore(t).Inner) }
	cases := []struct {
		name   string
		break_ func(*Image[int])
	}{
		{"counter drift", func(img *Image[int]) { img.Counter++ }},
		{"dead pattern", func(img *Image[int]) { img.Regions[1].Pattern &^= 1 }},
		{"broken pattern", func(img *Image[int]) { img.Regions[1].Pattern |= 2 }},
		{"count lie", func(img *Image[int]) { img.Regions[1].Pattern += 1 << 34 }},
		{"base lie", func(img *Image[int]) { img.Regions[2].Pattern += 1 << 2 }},
		{"cd missing", func(img *Image[int]) { img.Regions = img.Regions[1:] }},
		{"order flip", func(img *Image[int]) {
			img.Regions[1], img.Regions[2] = img.Regions[2], img.Regions[1]
		}},
		{"extra cell", func(img *Image[int]) {
			img.Regions[1].Cells = append(img.Regions[1].Cells, 7)
		}},
		{"puts conservation", func(img *Image[int]) { img.Stats.Puts++ }},
		{"negative counter", func(img *Image[int]) { img.Stats.Gets = -1 }},
		{"high-water lie", func(img *Image[int]) { img.Stats.MaxLiveCells = 0 }},
		{"phantom region", func(img *Image[int]) {
			img.Regions = append(img.Regions, RegionImage[int]{
				Name: img.Regions[len(img.Regions)-1].Name + 5, Pattern: 1,
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := fresh()
			tc.break_(&img)
			if err := img.Validate(); err == nil {
				t.Fatal("corrupted image validated")
			}
			if _, err := Restore(BackendMap, img); err == nil {
				t.Fatal("corrupted image restored")
			}
		})
	}
}
