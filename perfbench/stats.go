package main

import (
	"bufio"
	"crypto/sha256"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// median returns the median of xs (the mean of the middle pair for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that has ten samples beyond
// it, and which percentile that is. With ten samples or fewer there is
// no such percentile and both are 0.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n <= 10 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n - 10 // 1-based rank with exactly ten samples above it
	return s[k-1], 100 * float64(k) / float64(n)
}

// rtSample is a cheap runtime/metrics reading (no stop-the-world, unlike
// runtime.ReadMemStats), taken around timed parts and single ops.
type rtSample struct {
	gcCycles uint64
	gcCPU    float64
	totalCPU float64
	allocB   uint64
}

var rtNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRT() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		gcCycles: s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
		allocB:   s[3].Value.Uint64(),
	}
}

// gcCycles reads only the completed-collection counter, for per-op
// "did a collection finish during this op" bookkeeping.
func gcCycles() uint64 {
	s := []metrics.Sample{{Name: rtNames[0]}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// rtWindow accumulates the Go runtime's cost over a timed part.
type rtWindow struct {
	start, end rtSample
	ops        int
	opsInGC    int
}

func (w *rtWindow) begin()  { w.start = readRT() }
func (w *rtWindow) finish() { w.end = readRT() }

// opGC records one op that started at gcCycles() == before.
func (w *rtWindow) opGC(before uint64) {
	w.ops++
	if gcCycles() != before {
		w.opsInGC++
	}
}

// metrics returns the runtime.* per-layer metrics of the window,
// normalised by ops (the workload's op: a cold assessment, a restart, an
// acknowledged delta).
func (w *rtWindow) metrics(ops int) map[string]float64 {
	ops = max(ops, 1)
	cpu := w.end.totalCPU - w.start.totalCPU
	share := 0.0
	if cpu > 0 {
		share = (w.end.gcCPU - w.start.gcCPU) / cpu
	}
	inGC := 0.0
	if w.ops > 0 {
		inGC = float64(w.opsInGC) / float64(w.ops)
	}
	return map[string]float64{
		"runtime.alloc_mb_per_op": float64(w.end.allocB-w.start.allocB) / 1e6 / float64(ops),
		"runtime.gc_per_op":       float64(w.end.gcCycles-w.start.gcCycles) / float64(ops),
		"runtime.gc_cpu_share":    share,
		"runtime.ops_in_gc_share": inGC,
	}
}

// liveHeapMB collects twice and reports the live heap in MB (10^6
// bytes) after the first and after the second collection. Objects only
// a sync.Pool still references survive one collection and not two, so
// the second figure is the program's live state and the difference is
// what its pools were holding on to.
func liveHeapMB() (first, live float64) {
	heap := func() float64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc) / 1e6
	}
	first = heap()
	return first, heap()
}

// resetPeakRSS restarts the kernel's peak-RSS (VmHWM) accounting for this
// process, so the peak read at the end covers only what follows.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	return procStatusKB("VmHWM:") * 1024 / 1e6
}

func procStatusKB(key string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, key); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				v, _ := strconv.ParseFloat(fields[0], 64)
				return v
			}
		}
	}
	return 0
}

// cpuModel names the host CPU for the noise diagnostics.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// machineSpeed times fixed single-threaded work, hashing (CPU) and
// copying a buffer larger than the caches (memory bandwidth), in MB/s.
// It is a noise diagnostic: runs on a shared host speed up and slow down
// for reasons outside the program, memory-heavy work most of all.
func machineSpeed() (cpuMBs, memMBs float64) {
	buf := make([]byte, 64<<20)
	dst := make([]byte, len(buf))
	for i := range buf {
		buf[i] = byte(i)
	}
	t0 := time.Now()
	for i := 0; i < 4; i++ {
		sha256.Sum256(buf[:8<<20])
	}
	cpuMBs = 4 * 8 / time.Since(t0).Seconds() * (1 << 20) / 1e6
	copy(dst, buf) // fault the destination in before timing
	t1 := time.Now()
	for i := 0; i < 8; i++ {
		copy(dst, buf)
	}
	memMBs = 8 * 64 / time.Since(t1).Seconds() * (1 << 20) / 1e6
	return cpuMBs, memMBs
}
