// Command fireflybench regenerates the paper's evaluation tables on the
// simulated Firefly testbed and prints them beside the published values.
//
// Usage:
//
//	fireflybench                  # all tables at full paper scale
//	fireflybench -table I,VIII    # selected tables
//	fireflybench -quality 0.1     # 10% of the paper's call counts (fast)
//	fireflybench -list            # list experiments
//	fireflybench -table tail,overload,hedge -quality 0.4  # real-stack loss, overload and hedging sweeps
//	fireflybench -breakdown       # traced per-stage latency accounting (Tables VI/VII style)
//	fireflybench -breakdown -quality 0.25  # the same over 500 instead of 2000 calls
//	fireflybench -simtrace out.json  # Perfetto timeline + utilization report for a simulated run
//	fireflybench -batchcompare    # UDP fan-out with the send queue off vs on, back to back
//	fireflybench -traceoverhead   # tracing-on vs tracing-off async Null, gated ≤5%
//	fireflybench -mergedtrace out.json  # one Perfetto doc: simulated run + real chained-call spans
//
// The real-stack Table I matrix is a Go benchmark:
// go test -run '^$' -bench Stack -benchmem ./internal/realbench
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fireflyrpc/internal/exper"
	"fireflyrpc/internal/realbench"
)

// Fixed parameters of the one-shot modes. Their call counts are given at
// -quality 1 and scale with it.
const (
	batchCompareCalls  = 20000 // calls per side for -batchcompare
	asyncWidth         = 64    // outstanding calls for -batchcompare and -traceoverhead
	traceOverheadCalls = 20000 // calls per round for -traceoverhead
	traceOverheadBound = 1.05  // maximum tracing-on/off ns-per-op ratio
	breakdownCalls     = 2000  // calls traced by -breakdown
	breakdownSample    = 64    // sampling stride of -breakdown's overhead measurement
	simTraceThreads    = 4     // caller threads for -simtrace and -mergedtrace
	simTraceCalls      = 200   // simulated calls for -simtrace and -mergedtrace
	mergedChainCalls   = 16    // real two-hop chained calls for -mergedtrace
)

func main() {
	tables := flag.String("table", "all", "comma-separated table IDs (I..XII, util, improvements, streaming, ablations, tail, overload, hedge) or 'all'")
	quality := flag.Float64("quality", 1.0, "fraction of the paper's call counts to run; also scales the call counts of -breakdown, -traceoverhead, -simtrace and -mergedtrace")
	seed := flag.Uint64("seed", 1, "simulation seed")
	list := flag.Bool("list", false, "list experiments and exit")
	trace := flag.Bool("trace", false, "trace one Null() and one MaxResult(b) call through the simulated fast path and exit")
	batchCompare := flag.Bool("batchcompare", false, "run the UDP async fan-out comparison, proto's send queue off vs on over one socket type, and exit")
	traceOverhead := flag.Bool("traceoverhead", false, "run the tracing-on vs tracing-off async Null comparison and exit non-zero above the bound")
	mergedTrace := flag.String("mergedtrace", "", "write one Perfetto JSON combining a simulated run and real chained-call spans to this path and exit")
	breakdown := flag.Bool("breakdown", false, "trace Null calls through both endpoints and print the per-stage latency accounting")
	simTrace := flag.String("simtrace", "", "write a Chrome trace-event JSON timeline of a simulated run to this path and exit")
	flag.Parse()

	scaled := func(calls int) int { return max(1, int(float64(calls)**quality)) }

	if *breakdown {
		runBreakdown(scaled(breakdownCalls))
		return
	}

	if *batchCompare {
		runBatchCompare()
		return
	}

	if *traceOverhead {
		runTraceOverhead(scaled(traceOverheadCalls))
		return
	}

	if *mergedTrace != "" {
		runMergedTrace(*mergedTrace, *seed, scaled(simTraceCalls))
		return
	}

	if *simTrace != "" {
		runSimTrace(*simTrace, *seed, scaled(simTraceCalls))
		return
	}

	if *trace {
		traceCalls(*seed)
		return
	}

	if *list {
		for _, e := range exper.All() {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		return
	}

	opts := exper.Options{Quality: *quality, Seed: *seed}

	var selected []exper.Experiment
	if strings.EqualFold(*tables, "all") {
		selected = exper.All()
	} else {
		for _, id := range strings.Split(*tables, ",") {
			e, ok := exper.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "fireflybench: unknown table %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	fmt.Printf("Performance of Firefly RPC — reproduction (quality %.2f, seed %d)\n\n", *quality, *seed)
	for _, e := range selected {
		start := time.Now()
		tb := e.Run(opts)
		fmt.Print(tb.Render())
		fmt.Printf("  [%s in %.1fs wall]\n\n", e.ID, time.Since(start).Seconds())
	}
}

// runBatchCompare runs the UDP async fan-out comparison, the send queue
// off vs on over one socket type, back to back in this process and prints
// both sides plus the self-relative speedup — the measurement behind the
// EXPERIMENTS.md batched datapath table.
func runBatchCompare() {
	res, err := realbench.BatchCompare(batchCompareCalls, asyncWidth)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fireflybench: batchcompare: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("UDP async Null fan-out, %d outstanding, %d calls per side\n\n", res.Outstanding, res.PerFrame.Calls)
	row := func(name string, s realbench.BatchSide) {
		fmt.Printf("  %-9s %8.0f ns/op  %9.0f calls/s  %5.2f syscalls/call  (send %d ops/%d frames, recv %d ops/%d frames, gso %d)\n",
			name, s.NsPerOp, s.CallsPerSec, s.SyscallsPerCall,
			s.SendBatches, s.SendFrames, s.RecvBatches, s.RecvFrames, s.GSOSends)
	}
	row("queue off", res.PerFrame)
	row("queue on", res.Batched)
	fmt.Printf("\nspeedup: %.2fx (send queue on vs off, self-relative)\n", res.Speedup)
}

// runBreakdown prints the stage accounting table and the tracing overhead,
// exiting non-zero when the telescoping stage sum fails to explain the
// measured end-to-end latency within 10% — the same self-check the paper
// applies to Table VIII's model-vs-measurement comparison.
func runBreakdown(calls int) {
	res, err := realbench.Breakdown(calls, breakdownSample)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fireflybench: breakdown: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("Null call stage breakdown (exchange transport, %d traced calls)\n\n", res.Report.Calls)
	fmt.Print(res.Report.Format())
	fmt.Printf("\ntracing overhead on Null at 1-in-%d sampling: %.0f ns/call untraced, %.0f ns/call traced (%+.1f%%)\n",
		res.SampleEvery, res.NullNsUntraced, res.NullNsTraced, res.OverheadPercent)
	if un := res.Report.Unaccounted(); un < -0.10 || un > 0.10 {
		fmt.Fprintf(os.Stderr, "fireflybench: stage sum is off by %+.1f%% of end-to-end latency (tolerance 10%%)\n", 100*un)
		os.Exit(1)
	}
	if res.Report.Calls == 0 {
		fmt.Fprintln(os.Stderr, "fireflybench: no fully-stamped calls were accounted")
		os.Exit(1)
	}
}
