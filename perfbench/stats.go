package main

import (
	"bytes"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// spool keeps response bodies for the output checks without holding
// them in the heap, so the client does not inflate the process's memory
// figures. Bodies filed under a key (a cache hit that must repeat byte
// for byte) are compared with the first body of that key instead: one
// copy of each stays in memory, and a mismatch is recorded.
type spool struct {
	mu    sync.Mutex
	f     *os.File
	off   int64
	err   error
	first map[string]bodyRef // by key: the first body, kept in memory
}

// bodyRef locates a kept body. same is false when a keyed body differed
// from the first body of its key.
type bodyRef struct {
	off  int64
	n    int
	mem  []byte
	same bool
}

func newSpool(path string) (*spool, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &spool{f: f, first: map[string]bodyRef{}}, nil
}

func (s *spool) keep(key string, body []byte) bodyRef {
	s.mu.Lock()
	defer s.mu.Unlock()
	if key != "" {
		if r, ok := s.first[key]; ok {
			r.same = bytes.Equal(r.mem, body)
			return r
		}
		r := bodyRef{n: len(body), mem: append([]byte(nil), body...), same: true}
		s.first[key] = r
		return r
	}
	r := bodyRef{off: s.off, n: len(body), same: true}
	if _, err := s.f.Write(body); err != nil && s.err == nil {
		s.err = err
	}
	s.off += int64(len(body))
	return r
}

func (s *spool) load(r bodyRef) ([]byte, error) {
	if r.mem != nil || r.n == 0 {
		return r.mem, nil
	}
	if s.err != nil {
		return nil, s.err
	}
	b := make([]byte, r.n)
	_, err := s.f.ReadAt(b, r.off)
	return b, err
}

func (s *spool) close() { s.f.Close() }

// runtimeStats is a snapshot of the process's CPU and Go runtime
// counters.
type runtimeStats struct {
	cpu      time.Duration // user + system, whole process
	allocB   float64
	gcCycles float64
	gcCPU    float64
	totalCPU float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeStats{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocB:   val(0),
		gcCycles: val(1),
		gcCPU:    val(2),
		totalCPU: val(3),
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// quantile returns the q-quantile of sorted values by linear
// interpolation between order statistics.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
