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
		"baseline = as many callers as workers; baseline and none use the default FIFO queue of 1024 calls, which fills under overload (a timed-out call stays queued) and then sheds",
		"rejected = calls failed fast by a wire-level overload rejection")
	return t
}

// TableHedge is the replica-set hedging comparison: blocking Null through
// the cluster balancer against three replicas behind 10% caller-uplink
// loss, where 2% of requests stall 20ms in service, once plain and once
// with hedged requests. Retransmission recovers lost frames and P2C routes
// around persistently slow replicas, but only a backup request to another
// replica rescues a call already stuck in a slow execution.
func TableHedge(o Options) Table {
	t := Table{
		ID:    "hedge",
		Title: "Hedged vs unhedged replica-set tail latency (real stack)",
		Headers: []string{
			"mode", "replicas", "threads", "calls", "mean µs", "p99 µs", "issued/call",
		},
	}
	cells, err := realbench.ClusterSweep(realbench.ClusterOptions{
		CallsPerThread: o.calls(1000),
		Seed:           o.Seed,
	})
	if err != nil {
		t.Notes = append(t.Notes, "sweep failed: "+err.Error())
		return t
	}
	for _, c := range cells {
		mode := "unhedged"
		if c.Hedged {
			mode = "hedged"
		}
		t.Rows = append(t.Rows, []string{
			mode, fmt.Sprintf("%d", c.Replicas), fmt.Sprintf("%d", c.Threads),
			fmt.Sprintf("%d", c.N), f1(c.NsPerOp / 1e3), f1(c.P99Us), fmt.Sprintf("%.3f", c.IssuedPerCall),
		})
	}
	t.Notes = append(t.Notes,
		"unhedged p99 sits at the 20ms straggler service time; hedged p99 near the 2ms hedge delay",
		"issued/call > 1 is the hedging overhead: backup requests per logical call")
	return t
}
