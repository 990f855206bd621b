package main

import (
	"fmt"
	"os"

	"fireflyrpc/internal/costmodel"
	"fireflyrpc/internal/debughttp"
	"fireflyrpc/internal/realbench"
	"fireflyrpc/internal/simstack"
	"fireflyrpc/internal/simtrace"
)

// runTraceOverhead prints the tracing-on vs tracing-off async Null
// comparison and exits non-zero when the self-relative ratio crosses the
// bound — the CI witness for the "tracing costs ≤5% when on, nothing when
// off" claim.
func runTraceOverhead(calls int) {
	res, err := realbench.TraceOverhead(calls, asyncWidth)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fireflybench: traceoverhead: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("exchange async Null fan-out, %d outstanding, %d calls per round, best of %d rounds\n\n",
		res.Outstanding, res.Off.Calls, res.Rounds)
	fmt.Printf("  tracing off %8.0f ns/op  %9.0f calls/s\n", res.Off.NsPerOp, res.Off.CallsPerSec)
	fmt.Printf("  tracing on  %8.0f ns/op  %9.0f calls/s\n", res.On.NsPerOp, res.On.CallsPerSec)
	fmt.Printf("\nratio: %.3f (bound %.2f)\n", res.Ratio, traceOverheadBound)
	if res.Exceeds(traceOverheadBound) {
		fmt.Fprintf(os.Stderr, "fireflybench: tracing-on overhead ratio %.3f exceeds the %.2f bound\n", res.Ratio, traceOverheadBound)
		os.Exit(1)
	}
}

// runMergedTrace writes one Perfetto trace-event document holding both a
// simulated run's timeline and the spans of a real two-hop chained call —
// the shared span schema is what lets the same viewer show both. The real
// spans are shifted to the document's origin so the two timelines sit side
// by side rather than a process-uptime apart.
func runMergedTrace(outPath string, seed uint64, calls int) {
	cfg := costmodel.NewConfig()
	w := simstack.NewWorld(&cfg, seed)
	b := simtrace.AttachWorld(w)
	r := w.Run(simstack.MaxResultSpec(&cfg), mergedSimThreads, calls)

	rep, err := realbench.ChainSpans(mergedChainCalls)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fireflybench: mergedtrace: %v\n", err)
		os.Exit(1)
	}
	spans := debughttp.PerfettoSpans("real", rep.Spans)
	var minStart int64 = -1
	for i := range spans {
		if minStart < 0 || spans[i].StartNs < minStart {
			minStart = spans[i].StartNs
		}
	}
	for i := range spans {
		spans[i].StartNs -= minStart
		spans[i].EndNs -= minStart
	}
	b.AddSpans(spans)

	f, err := os.Create(outPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fireflybench: %v\n", err)
		os.Exit(1)
	}
	n, err := b.WriteTo(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fireflybench: writing %s: %v\n", outPath, err)
		os.Exit(1)
	}
	fmt.Printf("simulated %d MaxResult calls over %d threads in %v virtual time\n",
		r.Calls, mergedSimThreads, r.Elapsed)
	fmt.Printf("real chain: %d calls, %d root + %d child spans (linked=%v, unaccounted %+.2f%%)\n",
		rep.Calls, rep.Roots, rep.Children, rep.Linked(), 100*rep.Unaccounted)
	fmt.Printf("wrote %s: %d bytes (load in ui.perfetto.dev)\n", outPath, n)
	if !rep.Linked() {
		fmt.Fprintln(os.Stderr, "fireflybench: chained-call spans are not causally complete")
		os.Exit(1)
	}
}
