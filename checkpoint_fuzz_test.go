package psgc

import (
	"crypto/sha256"
	"errors"
	"os"
	"testing"

	"psgc/internal/workload"
)

// FuzzDecodeCheckpoint feeds mutated checkpoint blobs to the certifying
// decoder. Every input has its SHA-256 trailer re-sealed first: otherwise
// nearly every mutation stops at the checksum and gob decoding, the header
// cross-check, image validation and re-certification are never reached —
// and a forged trailer is exactly what a hostile peer can send. Properties:
// DecodeCheckpoint never panics, and a blob it accepts resumes under a
// bounded budget without panicking.
//
// Run it with:
//
//	go test -run '^$' -fuzz FuzzDecodeCheckpoint -fuzztime 30s -fuzzminimizetime 1s .
//
// The seeds are 100–600 KB, so the default minimization budget (60s per
// new input) would leave a short run almost no time to fuzz.
func FuzzDecodeCheckpoint(f *testing.F) {
	arena, err := os.ReadFile("testdata/arena_alloc_heavy_60.ckpt")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(arena)
	c, err := Compile(workload.AllocHeavySrc(10), Forwarding)
	if err != nil {
		f.Fatal(err)
	}
	for _, eng := range []Engine{EngineEnv, EngineSubst} {
		var ck *Checkpoint
		_, err := c.Run(RunOptions{Capacity: 16, Engine: eng, CheckpointEvery: 300,
			OnCheckpoint: func(k *Checkpoint) bool { ck = k; return false }})
		if !errors.Is(err, ErrCheckpointed) {
			f.Fatalf("%v: run did not checkpoint: %v", eng, err)
		}
		blob, err := ck.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeCheckpoint(reseal(data))
		if err != nil {
			return
		}
		ck.Resume(RunOptions{Fuel: 20_000}) // any outcome but a panic
	})
}

// reseal returns a copy of blob with its SHA-256 trailer recomputed over
// everything before it.
func reseal(blob []byte) []byte {
	if len(blob) < sha256.Size {
		return blob
	}
	out := append([]byte(nil), blob...)
	sum := sha256.Sum256(out[:len(out)-sha256.Size])
	copy(out[len(out)-sha256.Size:], sum[:])
	return out
}
