package main

import (
	"math/bits"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// hist is a log-linear latency histogram over nanoseconds: exact below
// 256 ns, then 128 sub-buckets per power of two (0.8% resolution).
// Quantiles interpolate linearly inside a bucket. It never allocates, so
// recording a latency costs the timed phase no garbage. internal/stats.Hist
// is not used because its power-of-two buckets (~2× error) cannot resolve
// a 25% regression bound.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	sumNs  float64
}

const (
	histSub     = 128
	histBuckets = 2*histSub + 40*histSub
)

func histIndex(v uint64) int {
	if v < 2*histSub {
		return int(v)
	}
	shift := bits.Len64(v) - 8 // v>>shift lands in [128, 256)
	i := 2*histSub + (shift-1)*histSub + int(v>>shift) - histSub
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// histBounds returns bucket i's lower bound and width in nanoseconds.
func histBounds(i int) (lo, width float64) {
	if i < 2*histSub {
		return float64(i), 1
	}
	shift := (i-2*histSub)/histSub + 1
	mant := (i-2*histSub)%histSub + histSub
	return float64(uint64(mant) << shift), float64(uint64(1) << shift)
}

func (h *hist) add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histIndex(uint64(d))]++
	h.n++
	h.sumNs += float64(d)
}

func (h *hist) reset() { *h = hist{} }

// quantileUs returns the q-quantile in microseconds (0 when empty).
func (h *hist) quantileUs(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, w := histBounds(i)
			return (lo + w*(target-cum)/float64(c)) / 1e3
		}
		cum += float64(c)
	}
	lo, w := histBounds(histBuckets - 1)
	return (lo + w) / 1e3
}

func (h *hist) meanUs() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sumNs / float64(h.n) / 1e3
}

// windowLen is the length of the slices a timed phase is cut into for
// op_p50_us, which is the mean of the slices' medians. On the shared
// virtual machine this benchmark was built on, the speed of the program's
// code changes in steps up to 1.6× apart that last seconds, so per-op
// latencies form clusters. A median over all of them lands in one cluster
// or the other and runs split into groups; the mean of the slices' medians
// follows the share of time spent at each speed and moves smoothly with
// it. The other figures are whole-phase totals.
const windowLen = 250 * time.Millisecond

// phase is the outcome of one timed phase.
type phase struct {
	attempted int64
	failed    int64
	firstErr  error
	total     hist      // every successful op's latency
	p50s      []float64 // per-window median latency, us
	ok        int64     // successful ops inside the timed span
	secs      float64
	cpu       time.Duration
	mallocs   uint64
	bytes     uint64
}

func (ph *phase) fail(err error) {
	ph.failed++
	if ph.firstErr == nil {
		ph.firstErr = err
	}
}

// measure runs closed-loop ops on r for d.
func measure(r *run, d time.Duration) *phase {
	n := max(int(d/windowLen), 1)
	ph := &phase{p50s: make([]float64, 0, n)}
	var wh hist
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	for w := 1; w <= n; w++ {
		end := start.Add(d * time.Duration(w) / time.Duration(n))
		wh.reset()
		for {
			lat, err := r.op()
			ph.attempted++
			if err != nil {
				ph.fail(err)
			} else {
				ph.ok++
				wh.add(lat)
				ph.total.add(lat)
			}
			if !time.Now().Before(end) {
				break
			}
		}
		if wh.n > 0 {
			ph.p50s = append(ph.p50s, wh.quantileUs(0.50))
		}
	}
	ph.secs = time.Since(start).Seconds()
	ph.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	ph.mallocs = ms1.Mallocs - ms0.Mallocs
	ph.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	return ph
}

// endToEnd returns the end-to-end metrics except setup_s. The per-op
// figures divide by the successful ops: a failed op is no throughput.
func (ph *phase) endToEnd() map[string]metric {
	var p50 float64
	for _, v := range ph.p50s {
		p50 += v
	}
	if len(ph.p50s) > 0 {
		p50 /= float64(len(ph.p50s))
	}
	ok := float64(ph.ok)
	return map[string]metric{
		"op_p50_us":          {p50, "us"},
		"op_p99_us":          {ph.total.quantileUs(0.99), "us"},
		"ops_per_s":          {ok / ph.secs, "1/s"},
		"cpu_us_per_op":      {ph.cpu.Seconds() * 1e6 / ok, "us"},
		"allocs_per_op":      {float64(ph.mallocs) / ok, "count"},
		"alloc_bytes_per_op": {float64(ph.bytes) / ok, "B"},
	}
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// cpuTime is the process's user+system CPU time so far. Callers and the
// in-process servers share the process, so spinning anywhere shows.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
