package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// quantile returns the q-quantile of xs, interpolating linearly between
// the two nearest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// clockProcessCPU is the kernel's CPU-time clock of the whole process,
// CLOCK_PROCESS_CPUTIME_ID (clock_gettime(2)). It counts only the time the
// process's threads ran: time spent waiting for a CPU, and time the
// hypervisor gave to other guests (steal), are left out. On a shared host
// that interference moves wall time by tens of percent from one minute to
// the next, and twice over when another process keeps every CPU busy,
// while the CPU time of the same work stays within a few percent.
const clockProcessCPU = 2

// cpuTime reads a CPU-time clock.
func cpuTime(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", clock, e))
	}
	return time.Duration(ts.Nano())
}

// rssEvery is how often an rssSampler reads the resident set.
const rssEvery = 50 * time.Millisecond

// rssSampler reads the process's resident set size every rssEvery until it
// is stopped. Its median is steadier than the peak, which is one sample
// of whatever happened to coincide.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MiB
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			if mb, err := rssMB(); err == nil {
				s.samples = append(s.samples, mb)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// median stops the sampler, waits for it and returns the median of its
// samples in MiB.
func (s *rssSampler) median() float64 {
	close(s.stop)
	<-s.done
	return quantile(s.samples, 0.5)
}

// rssMB is the process's resident set size now, in MiB, from the second
// field of /proc/self/statm (resident pages).
func rssMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0, fmt.Errorf("/proc/self/statm: %q", b)
	}
	pages, err := strconv.ParseUint(string(f[1]), 10, 64)
	if err != nil {
		return 0, err
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20), nil
}

// goCounters are the host Go runtime's cumulative allocation and CPU
// counters.
type goCounters struct {
	objects, bytes  uint64
	gcCPU, totalCPU float64
}

func (a goCounters) sub(b goCounters) goCounters {
	return goCounters{a.objects - b.objects, a.bytes - b.bytes, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a goCounters) add(b goCounters) goCounters {
	return goCounters{a.objects + b.objects, a.bytes + b.bytes, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

func readGo() goCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return goCounters{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Float64(), s[3].Value.Float64()}
}

// allocCounter reads the heap allocation count with a reused sample, so a
// read allocates nothing itself.
type allocCounter struct{ s [1]metrics.Sample }

func newAllocCounter() *allocCounter {
	a := &allocCounter{}
	a.s[0].Name = "/gc/heap/allocs:objects"
	return a
}

func (a *allocCounter) read() uint64 {
	metrics.Read(a.s[:])
	return a.s[0].Value.Uint64()
}
