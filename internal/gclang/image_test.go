package gclang_test

import (
	"bytes"
	"encoding/gob"
	"testing"

	"psgc/internal/gclang"
	"psgc/internal/regions"
	"psgc/internal/workload"
)

// runEnvToHalt runs a fresh env machine to completion and returns it.
func runEnvToHalt(t *testing.T, d gclang.Dialect, p gclang.Program) *gclang.EnvMachine {
	t.Helper()
	m := gclang.NewEnvMachine(d, p, 0)
	m.Mem.SetAutoGrow(true)
	if _, err := gclang.Run(m, 2_000_000); err != nil {
		t.Fatal(err)
	}
	return m
}

// gobRoundTrip pushes the image through its serialized form, as a real
// checkpoint does.
func gobRoundTrip(t *testing.T, img gclang.MachineImage) gclang.MachineImage {
	t.Helper()
	gclang.RegisterGob()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(img); err != nil {
		t.Fatalf("encode image: %v", err)
	}
	var out gclang.MachineImage
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&out); err != nil {
		t.Fatalf("decode image: %v", err)
	}
	return out
}

// imageAt steps a fresh env machine to the given step count and images it.
func imageAt(t *testing.T, d gclang.Dialect, p gclang.Program, steps int) gclang.MachineImage {
	t.Helper()
	m := gclang.NewEnvMachine(d, p, 0)
	m.Mem.SetAutoGrow(true)
	for m.Steps < steps && !m.Halted {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if m.Halted {
		t.Fatalf("halted at step %d before checkpoint point %d", m.Steps, steps)
	}
	img, err := m.Image()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestEnvImageCrossBackendResume images a run halfway, pushes the image
// through gob, and requires the restored machine to finish exactly as the
// uninterrupted run did: same result, steps, and every memory counter.
// Subtests are named dialect/source_to_destination store; the map is the
// only store, so map_to_map is the one pair.
func TestEnvImageCrossBackendResume(t *testing.T) {
	b := regions.BackendMap.String()
	for _, d := range []gclang.Dialect{gclang.Base, gclang.Forw, gclang.Gen} {
		t.Run(d.String()+"/"+b+"_to_"+b, func(t *testing.T) {
			c, err := workload.BuildCollectOnce(d, workload.List, 16)
			if err != nil {
				t.Fatal(err)
			}
			ref := runEnvToHalt(t, d, c.Prog)
			img := gobRoundTrip(t, imageAt(t, d, c.Prog, ref.Steps/2))
			res, err := gclang.RestoreEnvMachine(d, c.Prog, img)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := gclang.Run(res, 2_000_000); err != nil {
				t.Fatal(err)
			}
			if res.Result.String() != ref.Result.String() {
				t.Fatalf("result %s, uninterrupted %s", res.Result, ref.Result)
			}
			if res.Steps != ref.Steps {
				t.Fatalf("steps %d, uninterrupted %d", res.Steps, ref.Steps)
			}
			if res.Mem.Stats() != ref.Mem.Stats() {
				t.Fatalf("stats %+v, uninterrupted %+v", res.Mem.Stats(), ref.Mem.Stats())
			}
		})
	}
}

func TestRestoreOracleAgreesWithResumedEnv(t *testing.T) {
	d := gclang.Forw
	c, err := workload.BuildCollectOnce(d, workload.Tree, 4)
	if err != nil {
		t.Fatal(err)
	}
	ref := runEnvToHalt(t, d, c.Prog)
	img := gobRoundTrip(t, imageAt(t, d, c.Prog, ref.Steps/2))

	env, err := gclang.RestoreEnvMachine(d, c.Prog, img)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := gclang.RestoreOracle(c.Prog, img)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Steps != env.Steps {
		t.Fatalf("restored step counts differ: oracle %d env %d", oracle.Steps, env.Steps)
	}
	if oracle.Mem.Stats() != env.Mem.Stats() {
		t.Fatalf("restored stats differ: oracle %+v env %+v", oracle.Mem.Stats(), env.Mem.Stats())
	}
	// Co-step both to halt: identical counters every step, identical end.
	for !oracle.Halted {
		if err := oracle.Step(); err != nil {
			t.Fatalf("oracle step %d: %v", oracle.Steps, err)
		}
		if err := env.Step(); err != nil {
			t.Fatalf("env step %d: %v", env.Steps, err)
		}
		if oracle.Steps != env.Steps || oracle.Halted != env.Halted {
			t.Fatalf("diverged: oracle step %d halted %v, env step %d halted %v",
				oracle.Steps, oracle.Halted, env.Steps, env.Halted)
		}
		if oracle.Mem.Stats() != env.Mem.Stats() {
			t.Fatalf("step %d: stats: oracle %+v env %+v", oracle.Steps, oracle.Mem.Stats(), env.Mem.Stats())
		}
	}
	if oracle.Result.String() != ref.Result.String() || !env.Halted {
		t.Fatalf("oracle result %s, uninterrupted %s", oracle.Result, ref.Result)
	}
}

func TestSubstImageRoundTrip(t *testing.T) {
	d := gclang.Base
	c, err := workload.BuildCollectOnce(d, workload.List, 16)
	if err != nil {
		t.Fatal(err)
	}
	ref := gclang.NewMachine(d, c.Prog, 0)
	ref.Mem.SetAutoGrow(true)
	if _, err := gclang.Run(ref, 2_000_000); err != nil {
		t.Fatal(err)
	}
	m := gclang.NewMachine(d, c.Prog, 0)
	m.Mem.SetAutoGrow(true)
	for m.Steps < ref.Steps/2 {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	img, err := m.Image()
	if err != nil {
		t.Fatal(err)
	}
	res, err := gclang.RestoreMachine(d, c.Prog, gobRoundTrip(t, img))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gclang.Run(res, 2_000_000); err != nil {
		t.Fatal(err)
	}
	if res.Result.String() != ref.Result.String() || res.Steps != ref.Steps || res.Mem.Stats() != ref.Mem.Stats() {
		t.Fatalf("resumed run diverged: %s/%d/%+v vs %s/%d/%+v",
			res.Result, res.Steps, res.Mem.Stats(), ref.Result, ref.Steps, ref.Mem.Stats())
	}
}

func TestRestoreRejectsTamperedImages(t *testing.T) {
	d := gclang.Base
	c, err := workload.BuildCollectOnce(d, workload.List, 16)
	if err != nil {
		t.Fatal(err)
	}
	ref := runEnvToHalt(t, d, c.Prog)
	fresh := func() gclang.MachineImage {
		return imageAt(t, d, c.Prog, ref.Steps/2)
	}
	cases := []struct {
		name   string
		tamper func(*gclang.MachineImage)
	}{
		{"no control term", func(img *gclang.MachineImage) { img.Ctrl = nil }},
		{"negative steps", func(img *gclang.MachineImage) { img.Steps = -1 }},
		{"heap counter lie", func(img *gclang.MachineImage) { img.Heap.Stats.Puts++ }},
		{"lam pool mismatch", func(img *gclang.MachineImage) {
			img.Pool.Lams = append(img.Pool.Lams, gclang.LamV{})
		}},
		{"cd cell swapped", func(img *gclang.MachineImage) {
			img.Heap.Regions[0].Cells[0] = gclang.NumCell(7)
		}},
		{"env handle out of range", func(img *gclang.MachineImage) {
			for n := range img.EnvCells {
				img.EnvCells[n] = gclang.Cell{Tag: gclang.CellVar, A: 1 << 40}
				break
			}
		}},
		{"pool cell cycle", func(img *gclang.MachineImage) {
			// A pool cell whose payload references itself violates the
			// append-order invariant.
			img.Pool.Cells = append(img.Pool.Cells, gclang.Cell{
				Tag: gclang.CellPair,
				A:   uint64(len(img.Pool.Cells))<<2 | 2,
				B:   0 << 2,
			})
		}},
		{"unknown tag in heap", func(img *gclang.MachineImage) {
			last := len(img.Heap.Regions) - 1
			cells := img.Heap.Regions[last].Cells
			if len(cells) == 0 {
				t.Skip("no data cells at checkpoint")
			}
			cells[0] = gclang.Cell{Tag: 99}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := fresh()
			tc.tamper(&img)
			if _, err := gclang.RestoreEnvMachine(d, c.Prog, img); err == nil {
				t.Fatal("tampered image restored")
			}
		})
	}

	t.Run("dialect mismatch", func(t *testing.T) {
		img := fresh()
		if _, err := gclang.RestoreEnvMachine(gclang.Gen, c.Prog, img); err == nil {
			t.Fatal("image restored under wrong dialect")
		}
	})
	t.Run("env image as subst machine", func(t *testing.T) {
		img := fresh()
		if len(img.EnvCells) == 0 {
			t.Skip("empty environment at checkpoint")
		}
		if _, err := gclang.RestoreMachine(d, c.Prog, img); err == nil {
			t.Fatal("environment image restored as substitution machine")
		}
	})
}

func TestImageFingerprintTracksContent(t *testing.T) {
	d := gclang.Base
	c, err := workload.BuildCollectOnce(d, workload.List, 16)
	if err != nil {
		t.Fatal(err)
	}
	ref := runEnvToHalt(t, d, c.Prog)
	a := imageAt(t, d, c.Prog, ref.Steps/2)
	b := imageAt(t, d, c.Prog, ref.Steps/2)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("same state reached by two runs fingerprints differently")
	}
	b.Heap.Regions[len(b.Heap.Regions)-1].Pattern ^= 1 << 40
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("fingerprint blind to heap tampering")
	}
}
