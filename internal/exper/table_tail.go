package exper

import (
	"fmt"

	"fireflyrpc/internal/realbench"
)

// TableTail is the loss×load tail-latency sweep over the real stack: the
// price of the retransmission machinery expressed as percentiles. The
// paper reports only means; under injected loss the mean stays almost
// clean (most calls see no drop) while p99 and p99.9 inflate by orders of
// magnitude — the first retransmission interval becomes the tail.
func TableTail(o Options) Table {
	t := Table{
		ID:    "tail",
		Title: "Null RPC latency under frame loss (real stack, in-process exchange)",
		Headers: []string{
			"loss", "threads", "calls", "retrans", "p50 µs", "p99 µs", "p99.9 µs", "max µs",
		},
	}
	cells, err := realbench.TailSweep(realbench.TailOptions{
		CallsPerThread: o.calls(2000),
		Seed:           o.Seed,
	})
	if err != nil {
		t.Notes = append(t.Notes, "sweep failed: "+err.Error())
		return t
	}
	for _, c := range cells {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g%%", 100*c.Loss), fmt.Sprintf("%d", c.Threads),
			fmt.Sprintf("%d", c.Calls), fmt.Sprintf("%d", c.Retransmits),
			f1(c.P50Us), f1(c.P99Us), f1(c.P999Us), f1(c.MaxUs),
		})
	}
	t.Notes = append(t.Notes,
		"same seed => same impairment schedule; see internal/faultnet",
		"p50 stays near the clean fast path while p99/p99.9 absorb the retransmission timer")
	return t
}

// TableOverload is the admission-control goodput comparison at ~2×
// saturation: a closed-loop caller population against a server whose
// Null takes a fixed service time. FIFO queueing collapses once queue
// delay exceeds the callers' deadlines (the server serves only the dead);
// deadline shedding rejects dead-on-arrival work at the wire and keeps
// goodput near the unsaturated baseline.
func TableOverload(o Options) Table {
	t := Table{
		ID:    "overload",
		Title: "Goodput under overload by admission policy (real stack)",
		Headers: []string{
			"policy", "callers", "good calls/s", "ok", "timeout", "rejected", "shed", "p99 µs",
		},
	}
	cells, err := realbench.OverloadSweep(realbench.OverloadOptions{})
	if err != nil {
		t.Notes = append(t.Notes, "sweep failed: "+err.Error())
		return t
	}
	for _, c := range cells {
		t.Rows = append(t.Rows, []string{
			c.Policy, fmt.Sprintf("%d", c.Callers), f0(c.GoodputPerSec),
			fmt.Sprintf("%d", c.Completed), fmt.Sprintf("%d", c.Timeouts),
			fmt.Sprintf("%d", c.Overloads), fmt.Sprintf("%d", c.Shed), f1(c.P99Us),
		})
	}
	t.Notes = append(t.Notes,
		"baseline = as many callers as workers; baseline and none use the default FIFO queue, which never fills here",
		"rejected = calls failed fast by a wire-level overload rejection")
	return t
}
