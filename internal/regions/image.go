package regions

import "fmt"

// This file is the serializable form of a store: a heap image that
// Snapshot exports and Restore rebuilds, which is what lets a checkpointed
// run resume in another process or on another fleet node.
//
// The image is canonical: regions appear in creation order with cd first,
// and every region carries a §8 pattern word describing it as one window
// of a compact slab — live bit set, broken bit clear, base equal to the
// running total of the preceding regions' cells, count equal to its size.
// Memory has no slab, so Snapshot synthesizes the words; they are
// redundant with the cell slices, which is what makes them a cheap
// structural cross-check on untrusted images.
//
// Restore validates everything it is handed cell-count by cell-count —
// pattern words, creation-order names, the counter identity, and the
// conservation law Puts = cd + live + reclaimed — so a corrupted image is
// rejected with an error, never materialized into a store.

// RegionImage is one live region in an Image: its interned name, its
// canonical §8 pattern word, and its cells at dense offsets.
type RegionImage[V any] struct {
	Name    Name
	Pattern uint64
	Cells   []V
}

// Image is the serializable form of a Store: everything Restore needs to
// rebuild an observationally identical store.
type Image[V any] struct {
	// From records the exporting backend. Informational and unchecked:
	// images from older builds may name a store that no longer exists.
	From Backend
	// Capacity is the current fullness threshold (after any auto-growth).
	Capacity int
	// AutoGrow records whether the survivor-driven growth policy is on.
	AutoGrow bool
	// Counter is the next-region interning counter. The store issues
	// region names by incrementing it exactly once per NewRegion, so it
	// must equal Stats.RegionsCreated — Restore rejects images where the
	// identity fails.
	Counter uint32
	// Stats are the cumulative traffic counters at capture time. They are
	// restored directly (not replayed through Puts), so a resumed run's
	// counters continue bit-identically.
	Stats Stats
	// Regions holds the live regions in creation order, cd first.
	Regions []RegionImage[V]
}

// maxImageRegions bounds Counter in a restored image, so a hostile blob
// cannot claim an absurd name space; 1<<24 names is far beyond what the
// default 50M-step fuel budget can intern.
const maxImageRegions = 1 << 24

// The §8 pattern word: liveness and contiguity are single bits, the slab
// window is (base, count) packed above them. cd's word is a live marker
// only.
const (
	patLive       uint64 = 1 << 0
	patBroken     uint64 = 1 << 1
	patBaseShift         = 2
	patCountShift        = 34
	patBaseMask   uint64 = 1<<32 - 1 // 32-bit slab base
	patCountMax   uint64 = 1<<30 - 1 // 30-bit cell count
)

func patBase(w uint64) int  { return int((w >> patBaseShift) & patBaseMask) }
func patCount(w uint64) int { return int(w >> patCountShift) }

// Snapshot exports the store as a canonical Image. It reads cells through
// Peek, so taking a snapshot perturbs no counter the co-checker compares.
func Snapshot[V any](s Store[V]) Image[V] {
	names := s.Regions()
	img := Image[V]{
		From:     s.Backend(),
		Capacity: s.Capacity(),
		AutoGrow: s.AutoGrow(),
		Counter:  uint32(s.Stats().RegionsCreated),
		Stats:    s.Stats(),
		Regions:  make([]RegionImage[V], 0, len(names)),
	}
	base := 0
	for _, n := range names {
		size := s.Size(n)
		cells := make([]V, size)
		for off := 0; off < size; off++ {
			v, ok := s.Peek(Addr{Region: n, Off: off})
			if !ok {
				panic(fmt.Sprintf("regions: snapshot lost cell %s.%d", n, off))
			}
			cells[off] = v
		}
		pat := patLive | uint64(size)<<patCountShift
		if n != CD {
			pat |= uint64(base) << patBaseShift
			base += size
		} else {
			// cd's pattern word is a live marker only.
			pat = patLive
		}
		img.Regions = append(img.Regions, RegionImage[V]{Name: n, Pattern: pat, Cells: cells})
	}
	return img
}

// Validate checks the image's structural invariants without building a
// store. Restore calls it; external callers can use it to classify a blob
// before paying for reconstruction.
func (img *Image[V]) Validate() error {
	if len(img.Regions) == 0 || img.Regions[0].Name != CD {
		return fmt.Errorf("regions: image must list the code region first")
	}
	if img.Capacity < 0 {
		return fmt.Errorf("regions: image capacity %d is negative", img.Capacity)
	}
	if img.Counter > maxImageRegions {
		return fmt.Errorf("regions: image counter %d exceeds the %d-region limit", img.Counter, maxImageRegions)
	}
	st := img.Stats
	if st.Puts < 0 || st.Gets < 0 || st.Sets < 0 || st.RegionsCreated < 0 ||
		st.RegionsReclaimed < 0 || st.CellsReclaimed < 0 || st.MaxLiveCells < 0 {
		return fmt.Errorf("regions: image has negative counters: %+v", st)
	}
	if uint32(st.RegionsCreated) != img.Counter || st.RegionsCreated > maxImageRegions {
		return fmt.Errorf("regions: image counter %d does not match %d regions created", img.Counter, st.RegionsCreated)
	}
	live, base := 0, 0
	prev := Name(0)
	for i, r := range img.Regions {
		if i > 0 && r.Name <= prev {
			return fmt.Errorf("regions: image region %s out of creation order", r.Name)
		}
		prev = r.Name
		if uint32(r.Name) > img.Counter {
			return fmt.Errorf("regions: image region %s was never interned (counter %d)", r.Name, img.Counter)
		}
		if r.Pattern&patLive == 0 {
			return fmt.Errorf("regions: image region %s pattern word is not live", r.Name)
		}
		if r.Pattern&patBroken != 0 {
			return fmt.Errorf("regions: image region %s pattern word is broken (images are canonical)", r.Name)
		}
		if uint64(len(r.Cells)) > patCountMax {
			return fmt.Errorf("regions: image region %s has %d cells, beyond the pattern word's range", r.Name, len(r.Cells))
		}
		if r.Name == CD {
			if r.Pattern != patLive {
				return fmt.Errorf("regions: image cd pattern word %#x carries a window", r.Pattern)
			}
			continue
		}
		if patCount(r.Pattern) != len(r.Cells) {
			return fmt.Errorf("regions: image region %s pattern count %d does not match %d cells",
				r.Name, patCount(r.Pattern), len(r.Cells))
		}
		if patBase(r.Pattern) != base {
			return fmt.Errorf("regions: image region %s pattern base %d, want %d",
				r.Name, patBase(r.Pattern), base)
		}
		base += len(r.Cells)
		live += len(r.Cells)
	}
	if created, reclaimed := st.RegionsCreated, st.RegionsReclaimed; created-reclaimed != len(img.Regions)-1 {
		return fmt.Errorf("regions: image has %d live regions but counters say %d created - %d reclaimed",
			len(img.Regions)-1, created, reclaimed)
	}
	if st.MaxLiveCells < live {
		return fmt.Errorf("regions: image live cells %d exceed the high-water mark %d", live, st.MaxLiveCells)
	}
	// Conservation: every put is still live, in cd, or was reclaimed.
	if cd := len(img.Regions[0].Cells); st.Puts != cd+live+st.CellsReclaimed {
		return fmt.Errorf("regions: image fails put conservation: %d puts != %d cd + %d live + %d reclaimed",
			st.Puts, cd, live, st.CellsReclaimed)
	}
	return nil
}

// Restore builds a fresh store of the selected backend from a validated
// image. Cell slices are copied, so the image stays usable (a resume retry
// can restore it again) and the store owns its memory.
func Restore[V any](b Backend, img Image[V]) (Store[V], error) {
	if b != BackendMap {
		return nil, fmt.Errorf("regions: cannot restore image onto backend %s", b)
	}
	if err := img.Validate(); err != nil {
		return nil, err
	}
	m := &Memory[V]{
		capacity: img.Capacity,
		autoGrow: img.AutoGrow,
		stats:    img.Stats,
		regions:  make(map[Name]*region[V], len(img.Regions)),
		counter:  img.Counter,
	}
	for _, r := range img.Regions {
		m.regions[r.Name] = &region[V]{cells: append([]V(nil), r.Cells...)}
		m.order = append(m.order, r.Name)
		if r.Name != CD {
			m.live += len(r.Cells)
		}
	}
	return m, nil
}
