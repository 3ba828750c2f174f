package regions

import "fmt"

// This file provides op-trace record and replay: a Trace store wraps any
// Store and logs every operation, and Replay re-executes a log against a
// fresh store. The benchmark harness uses it to measure the substrate in
// isolation — record the exact memory traffic of a workload once, then
// replay the identical op sequence — so the substrate's share of a run is
// timed without machine interpretation.

// OpKind identifies one Store operation.
type OpKind uint8

// The recordable operations.
const (
	OpNewRegion OpKind = iota
	OpPut
	OpGet
	OpSet
	OpOnly
	OpFull
	OpSize
	OpLiveCells
	OpHas
)

// Op is one recorded store operation with its operands.
type Op[V any] struct {
	Kind OpKind
	N    Name   // NewRegion result / Put, Full, Size, Has operand
	A    Addr   // Get, Set operand
	V    V      // Put, Set operand
	Keep []Name // Only operand (copied; callers reuse their keep buffers)
}

// Trace is a Store that forwards to Inner and appends every operation to
// Ops.
type Trace[V any] struct {
	Inner Store[V]
	Ops   []Op[V]
}

// NewTrace wraps inner in a recording store.
func NewTrace[V any](inner Store[V]) *Trace[V] { return &Trace[V]{Inner: inner} }

func (t *Trace[V]) NewRegion() Name {
	n := t.Inner.NewRegion()
	t.Ops = append(t.Ops, Op[V]{Kind: OpNewRegion, N: n})
	return n
}

func (t *Trace[V]) Has(n Name) bool {
	t.Ops = append(t.Ops, Op[V]{Kind: OpHas, N: n})
	return t.Inner.Has(n)
}

func (t *Trace[V]) Put(n Name, v V) (Addr, error) {
	t.Ops = append(t.Ops, Op[V]{Kind: OpPut, N: n, V: v})
	return t.Inner.Put(n, v)
}

func (t *Trace[V]) Get(a Addr) (V, error) {
	t.Ops = append(t.Ops, Op[V]{Kind: OpGet, A: a})
	return t.Inner.Get(a)
}

func (t *Trace[V]) Set(a Addr, v V) error {
	t.Ops = append(t.Ops, Op[V]{Kind: OpSet, A: a, V: v})
	return t.Inner.Set(a, v)
}

func (t *Trace[V]) Peek(a Addr) (V, bool) {
	// Bookkeeping reads are not memory traffic; deliberately not recorded.
	return t.Inner.Peek(a)
}

func (t *Trace[V]) Corrupt(a Addr, v V) bool {
	// Corruption is fault-injection machinery, not memory traffic; it is
	// deliberately not recorded.
	return t.Inner.Corrupt(a, v)
}

func (t *Trace[V]) Only(keep []Name) error {
	t.Ops = append(t.Ops, Op[V]{Kind: OpOnly, Keep: append([]Name(nil), keep...)})
	return t.Inner.Only(keep)
}

func (t *Trace[V]) Full(n Name) bool {
	t.Ops = append(t.Ops, Op[V]{Kind: OpFull, N: n})
	return t.Inner.Full(n)
}

func (t *Trace[V]) Size(n Name) int {
	t.Ops = append(t.Ops, Op[V]{Kind: OpSize, N: n})
	return t.Inner.Size(n)
}

func (t *Trace[V]) LiveCells() int {
	t.Ops = append(t.Ops, Op[V]{Kind: OpLiveCells})
	return t.Inner.LiveCells()
}

func (t *Trace[V]) Regions() []Name    { return t.Inner.Regions() }
func (t *Trace[V]) Cells() []Addr      { return t.Inner.Cells() }
func (t *Trace[V]) Stats() Stats       { return t.Inner.Stats() }
func (t *Trace[V]) Capacity() int      { return t.Inner.Capacity() }
func (t *Trace[V]) AutoGrow() bool     { return t.Inner.AutoGrow() }
func (t *Trace[V]) SetAutoGrow(b bool) { t.Inner.SetAutoGrow(b) }
func (t *Trace[V]) Backend() Backend   { return t.Inner.Backend() }

// Replay executes a recorded op sequence against s. A log recorded from a
// successful run replays without error on a fresh store with the recorded
// store's capacity and growth policy (it issues identical region names in
// identical order).
func Replay[V any](ops []Op[V], s Store[V]) error {
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case OpNewRegion:
			if n := s.NewRegion(); n != op.N {
				return fmt.Errorf("regions: replay op %d: NewRegion returned %s, recorded %s", i, n, op.N)
			}
		case OpPut:
			if _, err := s.Put(op.N, op.V); err != nil {
				return fmt.Errorf("regions: replay op %d: %w", i, err)
			}
		case OpGet:
			if _, err := s.Get(op.A); err != nil {
				return fmt.Errorf("regions: replay op %d: %w", i, err)
			}
		case OpSet:
			if err := s.Set(op.A, op.V); err != nil {
				return fmt.Errorf("regions: replay op %d: %w", i, err)
			}
		case OpOnly:
			if err := s.Only(op.Keep); err != nil {
				return fmt.Errorf("regions: replay op %d: %w", i, err)
			}
		case OpFull:
			s.Full(op.N)
		case OpSize:
			s.Size(op.N)
		case OpLiveCells:
			s.LiveCells()
		case OpHas:
			s.Has(op.N)
		default:
			return fmt.Errorf("regions: replay op %d: unknown kind %d", i, op.Kind)
		}
	}
	return nil
}
