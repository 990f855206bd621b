package main

import (
	"fmt"
	"os"

	"fireflyrpc/internal/costmodel"
	"fireflyrpc/internal/simstack"
	"fireflyrpc/internal/simtrace"
)

// runSimTrace drives a short MaxResult workload on the simulated testbed
// with the timeline tracer attached, writes Chrome trace-event JSON for
// Perfetto, and prints the per-resource utilization report.
func runSimTrace(outPath string, seed uint64, calls int) {
	cfg := costmodel.NewConfig()
	w := simstack.NewWorld(&cfg, seed)
	b := simtrace.AttachWorld(w)
	r := w.Run(simstack.MaxResultSpec(&cfg), simTraceThreads, calls)

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

	c := b.Counts()
	fmt.Printf("simulated %d MaxResult calls over %d threads in %v virtual time\n",
		r.Calls, simTraceThreads, r.Elapsed)
	fmt.Printf("wrote %s: %d trace events, %d bytes (load in ui.perfetto.dev)\n",
		outPath, c.Events, n)
	fmt.Printf("kernel events: %d scheduled, %d fired\n\n", c.Scheduled, c.Fired)
	fmt.Printf("caller busy CPUs %.2f, server %.2f (paper §2.1: ~1.2 caller at saturation)\n\n",
		r.CallerCPU, r.ServerCPU)
	fmt.Print(simtrace.RenderResourceTable(simtrace.ResourceReport(w.K)))
}
