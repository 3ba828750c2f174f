// Package checkpoint is the versioned, self-validating wire format for a
// paused run: the machine image (control state, environment, pools, heap
// image with region pattern words), the elaborated program it executes,
// the attached profiler's aggregate state, and the run metadata needed to
// resume it — collector, engine, fuel remaining, trace identity.
//
// The format is defensive end to end, mirroring the peer compiled-entry
// cache: a SHA-256 trailer covers every preceding byte, the header carries
// a machine-state fingerprint plus region/cell counts that are recomputed
// from the decoded body, and the decoded image itself is re-validated
// cell-by-cell (and the program re-typechecked) by the layers above before
// anything runs. A truncated, bit-flipped, or malicious blob is rejected
// with an error — never a panic, never a silently wrong resumed run.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"fmt"

	"psgc/internal/gclang"
	"psgc/internal/obs"
)

func init() { gclang.RegisterGob() }

// FormatVersion is bumped whenever the blob layout or any serialized type
// changes incompatibly; decoding any other version is refused.
const FormatVersion = 1

// magic opens every checkpoint blob.
var magic = [8]byte{'p', 's', 'g', 'c', 'c', 'k', 'p', '1'}

// Header is the checkpoint metadata, serialized ahead of the body. Every
// field that is derivable from the body (steps, fingerprint, counts) is
// recomputed at decode time and must match — corruption that survives the
// checksum (or a mismatched header/body splice) is detected here.
type Header struct {
	FormatVersion int
	SourceHash    string
	Collector     string
	Engine        string
	TraceID       string
	Steps         int
	Collections   int
	FuelRemaining int

	// CellSum fingerprints the machine image (heap layout and cells,
	// pooled cells, environment bindings); Regions and Cells count the
	// heap image.
	CellSum uint64
	Regions int
	Cells   int
}

// Snapshot is a complete paused run. Collector and Engine are carried as
// names so this package stays below the psgc root package.
//
// Blobs written before backend selection was removed also carry a Backend
// name in the header and the body. Gob skips stream fields the receiving
// type lacks, so those blobs still decode, under the same format version.
type Snapshot struct {
	SourceHash    string
	Collector     string
	Engine        string
	TraceID       string
	Collections   int
	FuelRemaining int

	Machine  gclang.MachineImage
	Profiler *obs.ProfilerImage
	Program  gclang.Program
}

func heapCells(s *Snapshot) int {
	n := 0
	for i := range s.Machine.Heap.Regions {
		n += len(s.Machine.Heap.Regions[i].Cells)
	}
	return n
}

// Encode serializes the snapshot: magic, big-endian format version, one
// gob stream holding the header then the body, and a SHA-256 trailer over
// everything preceding it.
func Encode(s *Snapshot) ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(magic[:])
	var ver [4]byte
	binary.BigEndian.PutUint32(ver[:], FormatVersion)
	buf.Write(ver[:])
	enc := gob.NewEncoder(&buf)
	h := Header{
		FormatVersion: FormatVersion,
		SourceHash:    s.SourceHash,
		Collector:     s.Collector,
		Engine:        s.Engine,
		TraceID:       s.TraceID,
		Steps:         s.Machine.Steps,
		Collections:   s.Collections,
		FuelRemaining: s.FuelRemaining,
		CellSum:       s.Machine.Fingerprint(),
		Regions:       len(s.Machine.Heap.Regions),
		Cells:         heapCells(s),
	}
	if err := enc.Encode(h); err != nil {
		return nil, fmt.Errorf("checkpoint: encode header: %w", err)
	}
	if err := enc.Encode(s); err != nil {
		return nil, fmt.Errorf("checkpoint: encode body: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	buf.Write(sum[:])
	return buf.Bytes(), nil
}

// Decode deserializes and validates a checkpoint blob, returning the
// header and snapshot. The checksum is verified before any gob decoding
// touches the payload, and every derivable header field is recomputed
// from the body and compared.
func Decode(data []byte) (*Header, *Snapshot, error) {
	const overhead = len(magic) + 4 + sha256.Size
	if len(data) < overhead {
		return nil, nil, fmt.Errorf("checkpoint: blob truncated (%d bytes)", len(data))
	}
	if !bytes.Equal(data[:len(magic)], magic[:]) {
		return nil, nil, fmt.Errorf("checkpoint: bad magic")
	}
	if v := binary.BigEndian.Uint32(data[len(magic) : len(magic)+4]); v != FormatVersion {
		return nil, nil, fmt.Errorf("checkpoint: format version %d, want %d", v, FormatVersion)
	}
	body, trailer := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], trailer) {
		return nil, nil, fmt.Errorf("checkpoint: checksum mismatch")
	}
	dec := gob.NewDecoder(bytes.NewReader(body[len(magic)+4:]))
	var h Header
	if err := dec.Decode(&h); err != nil {
		return nil, nil, fmt.Errorf("checkpoint: decode header: %w", err)
	}
	if h.FormatVersion != FormatVersion {
		return nil, nil, fmt.Errorf("checkpoint: header version %d, want %d", h.FormatVersion, FormatVersion)
	}
	var s Snapshot
	if err := dec.Decode(&s); err != nil {
		return nil, nil, fmt.Errorf("checkpoint: decode body: %w", err)
	}
	if err := crossCheck(&h, &s); err != nil {
		return nil, nil, err
	}
	return &h, &s, nil
}

// crossCheck verifies every header field that duplicates or derives from
// body content.
func crossCheck(h *Header, s *Snapshot) error {
	switch {
	case h.SourceHash != s.SourceHash,
		h.Collector != s.Collector,
		h.Engine != s.Engine,
		h.TraceID != s.TraceID,
		h.Collections != s.Collections,
		h.FuelRemaining != s.FuelRemaining:
		return fmt.Errorf("checkpoint: header metadata does not match body")
	case h.Steps != s.Machine.Steps:
		return fmt.Errorf("checkpoint: header steps %d, body %d", h.Steps, s.Machine.Steps)
	case h.Regions != len(s.Machine.Heap.Regions):
		return fmt.Errorf("checkpoint: header regions %d, body %d", h.Regions, len(s.Machine.Heap.Regions))
	case h.Cells != heapCells(s):
		return fmt.Errorf("checkpoint: header cells %d, body %d", h.Cells, heapCells(s))
	}
	if sum := s.Machine.Fingerprint(); h.CellSum != sum {
		return fmt.Errorf("checkpoint: machine fingerprint %016x, header %016x", sum, h.CellSum)
	}
	return nil
}
