// Command perfbench is the repository's benchmark: it drives the real RPC
// stack (core, proto, transport, marshal, cluster, kvstore) from outside,
// through the packages' exported functions and the transport.Transport
// seam, on two closed-loop workloads. See README.md for the workloads, the
// metrics and the layer → end-to-end map.
//
//	perfbench --workload bulk64k_udp --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 a traced
// run prints the per-layer metrics and the Σ-stages-vs-op-mean ladder line.
// Human-readable lines go first; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	samples   uint64            // latencies behind the percentiles
	firstErr  error             // first failed op, for the diagnostic line
}

func main() {
	name := flag.String("workload", "", "workload: bulk64k_udp | kv_udp | all (each in turn)")
	seed := flag.Uint64("seed", 1, "input seed: payload bytes, keys and op mix")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()

	ws := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		ws = []*workload{w}
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	d := time.Duration(*seconds) * time.Second
	runtime.GOMAXPROCS(procs)
	opt := options{seed: *seed}

	measureWorkload := runTimed
	if *trace == 1 {
		measureWorkload = runTraced
	}
	for _, w := range ws {
		rep, err := measureWorkload(w, opt, d)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		printReport(os.Stdout, w.name, rep)
	}
}

// procs is the number of Ps the benchmark runs the whole stack on. On a
// two-vCPU virtual machine a goroutine handoff to an idle second P wakes
// its vCPU through the hypervisor, and those wake-ups, not the program,
// set the tail: with two Ps, five seeded 10 s runs of blocking Null calls
// over the in-process exchange spread 22% in op_p99_us and 12% in ops_per_s (interquartile range over
// median); with one P, 6% and 2%, and kv_udp's op_p99_us 27% → 8%. One P
// measures the same critical path (every handoff is still a goroutine
// switch) on one core, as the repository's earlier paired measurements did.
const procs = 1

// runTimed is the untraced run. It sets the workload up w.setups times,
// the first half before the timed phase, whose instance it times for d,
// and the rest after it, and reports every end-to-end metric. setup_s is
// the median of all the set-ups: the machine's speed changes in steps
// that last seconds (see measure.go), so set-ups made back to back all
// fall in one step, and two groups a timed phase apart sample two.
func runTimed(w *workload, opt options, d time.Duration) (report, error) {
	before := w.setups/2 + 1
	r, times, err := setups(w, opt, before)
	if err != nil {
		return report{}, err
	}
	stats0 := r.protoCounters()
	ph := measure(r, d)
	stats1 := r.protoCounters()
	r.close()
	fmt.Fprintf(os.Stdout, "%s %s\n", w.name, stats1.since(stats0))
	for i := before; i < w.setups; i++ {
		r, s, err := setup(w, opt)
		if err != nil {
			return report{}, err
		}
		r.close()
		times = append(times, s)
	}
	m := ph.endToEnd()
	m["setup_s"] = metric{median(times), "s"}
	return ph.report(m), nil
}

// setups builds the workload n times, closing all but the last instance,
// and returns that instance and every set-up time in seconds.
func setups(w *workload, opt options, n int) (*run, []float64, error) {
	times := make([]float64, 0, w.setups)
	var r *run
	for i := 0; i < n; i++ {
		if r != nil {
			r.close()
		}
		var s float64
		var err error
		r, s, err = setup(w, opt)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, s)
	}
	return r, times, nil
}

// setup builds one instance, runs the fixed-count warm-up and collects
// garbage: everything from workload start to the first timed op.
func setup(w *workload, opt options) (*run, float64, error) {
	start := time.Now()
	r, err := w.build(opt)
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < w.warmup; i++ {
		if _, err := r.op(); err != nil {
			r.close()
			return nil, 0, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	runtime.GC()
	return r, time.Since(start).Seconds(), nil
}

func (ph *phase) report(m map[string]metric) report {
	return report{
		Correct:   ph.failed == 0,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics:   m,
		samples:   ph.total.n,
		firstErr:  ph.firstErr,
	}
}

// printReport writes one human-readable line per metric, the failure
// summary, and the JSON line last.
func printReport(out *os.File, name string, rep report) {
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := rep.Metrics[k]
		fmt.Fprintf(out, "%s %-34s %14.4f %s\n", name, k, m.Value, m.Unit)
	}
	fmt.Fprintf(out, "%s attempted=%d failed=%d correct=%v latency_samples=%d\n", name, rep.Attempted, rep.Failed, rep.Correct, rep.samples)
	if rep.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: first failed op: %v\n", name, rep.firstErr)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(out, string(b))
}

// errCheck marks an op whose RPC succeeded but whose output was wrong.
var errCheck = errors.New("output check failed")
