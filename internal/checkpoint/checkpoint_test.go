package checkpoint

import (
	"crypto/sha256"
	"testing"

	"psgc/internal/gclang"
	"psgc/internal/workload"
)

func snapshotFor(t *testing.T) *Snapshot {
	t.Helper()
	c, err := workload.BuildCollectOnce(gclang.Forw, workload.List, 16)
	if err != nil {
		t.Fatal(err)
	}
	m := gclang.NewEnvMachine(gclang.Forw, c.Prog, 0)
	m.Mem.SetAutoGrow(true)
	for i := 0; i < 200; i++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	img, err := m.Image()
	if err != nil {
		t.Fatal(err)
	}
	return &Snapshot{
		SourceHash:    "deadbeef",
		Collector:     "forwarding",
		Engine:        "env",
		TraceID:       "trace-1",
		Collections:   3,
		FuelRemaining: 12345,
		Machine:       img,
		Program:       c.Prog,
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := snapshotFor(t)
	blob, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	h, got, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if h.Steps != s.Machine.Steps || h.Collector != "forwarding" || h.TraceID != "trace-1" ||
		h.FuelRemaining != 12345 || h.CellSum != s.Machine.Fingerprint() {
		t.Fatalf("header mismatch: %+v", h)
	}
	if got.Machine.Fingerprint() != s.Machine.Fingerprint() {
		t.Fatal("decoded machine image differs from the encoded one")
	}
	// The decoded image must restore and resume — the full path a resumed
	// run takes.
	res, err := gclang.RestoreEnvMachine(gclang.Forw, got.Program, got.Machine)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gclang.Run(res, 2_000_000); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	s := snapshotFor(t)
	blob, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, data []byte) {
		t.Run(name, func(t *testing.T) {
			if _, _, err := Decode(data); err == nil {
				t.Fatal("corrupt blob decoded")
			}
		})
	}
	check("empty", nil)
	check("truncated header", blob[:20])
	check("truncated body", blob[:len(blob)/2])
	check("truncated trailer", blob[:len(blob)-1])
	for _, pos := range []int{0, 9, len(magic) + 4 + 3, len(blob) / 2, len(blob) - 5} {
		mut := append([]byte(nil), blob...)
		mut[pos] ^= 0x40
		check("bit flip", mut)
	}
	// Splicing one blob's header+checksum discipline with altered metadata:
	// re-encode with a different trace, then swap trailers.
	s2 := *s
	s2.TraceID = "trace-2"
	blob2, err := Encode(&s2)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob2) == len(blob) {
		splice := append([]byte(nil), blob2[:len(blob2)-32]...)
		splice = append(splice, blob[len(blob)-32:]...)
		check("spliced trailer", splice)
	}
}

func TestDecodeRejectsWrongVersion(t *testing.T) {
	s := snapshotFor(t)
	blob, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), blob...)
	mut[len(magic)+3] = 99 // version word
	// Re-seal so only the version is wrong, not the checksum.
	resealed := reseal(mut)
	if _, _, err := Decode(resealed); err == nil {
		t.Fatal("wrong-version blob decoded")
	}
}

func reseal(blob []byte) []byte {
	body := blob[:len(blob)-32]
	sum := sha256.Sum256(body)
	return append(append([]byte(nil), body...), sum[:]...)
}
