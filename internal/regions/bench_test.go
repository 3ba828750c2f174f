package regions

import (
	"fmt"
	"testing"
)

// BenchmarkPut is the O(1)-allocation regression for the hot path: Put
// must not scan live regions (the old MaxLiveCells maintenance did) and
// must allocate only the amortized slab growth. With many live regions the
// per-op time must stay flat.
func BenchmarkPut(b *testing.B) {
	for _, liveRegions := range []int{1, 256} {
		b.Run(fmt.Sprintf("regions=%d", liveRegions), func(b *testing.B) {
			s := New[int](0)
			rs := make([]Name, liveRegions)
			for i := range rs {
				rs[i] = s.NewRegion()
				s.Put(rs[i], i) // non-empty so LiveCells sums real sizes
			}
			r := rs[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Put(r, i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGet(b *testing.B) {
	s := New[int](0)
	// Two interleaved regions, as a mutator and a collector's to-space
	// interleave their allocations.
	r1, r2 := s.NewRegion(), s.NewRegion()
	const n = 1024
	addrs := make([]Addr, 0, 2*n)
	for i := 0; i < n; i++ {
		a1, _ := s.Put(r1, i)
		a2, _ := s.Put(r2, i)
		addrs = append(addrs, a1, a2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(addrs[i%len(addrs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSet(b *testing.B) {
	s := New[int](0)
	r := s.NewRegion()
	const n = 1024
	addrs := make([]Addr, n)
	for i := 0; i < n; i++ {
		addrs[i], _ = s.Put(r, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Set(addrs[i%n], i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnly measures one collection cycle: allocate a condemned and a
// survivor region, reclaim the condemned one. ReportAllocs pins the
// keep-set delta: the keep list is scanned, not hashed into a fresh map,
// so steady-state collections allocate nothing beyond slab growth.
func BenchmarkOnly(b *testing.B) {
	for _, liveCells := range []int{4, 256} {
		b.Run(fmt.Sprintf("live=%d", liveCells), func(b *testing.B) {
			s := New[int](0)
			keep := []Name{s.NewRegion()}
			for i := 0; i < liveCells; i++ {
				s.Put(keep[0], i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dead := s.NewRegion()
				for j := 0; j < 4; j++ {
					s.Put(dead, j)
				}
				if err := s.Only(keep); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
