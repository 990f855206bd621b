package realbench

import (
	"time"

	"fireflyrpc/internal/proto"
	"fireflyrpc/internal/testsvc"
)

// The breakdown runner: the real-stack analogue of the paper's Tables VI
// and VII. It traces every Null call through both endpoints' stage rings,
// compiles the joined records into a per-stage latency table whose
// telescoping sum is checked against the measured end-to-end time, and
// measures what the tracing machinery itself costs at the production
// sampling rate.

// BreakdownResult is one -breakdown run.
type BreakdownResult struct {
	Report proto.AccountingReport `json:"report"`

	// Tracing overhead at 1-in-SampleEvery sampling on the Null call.
	SampleEvery     int     `json:"sample_every"`
	NullNsUntraced  float64 `json:"null_ns_untraced"`
	NullNsTraced    float64 `json:"null_ns_traced"`
	OverheadPercent float64 `json:"overhead_percent"`
}

// timeNullCalls measures mean ns/call over n blocking Null calls.
func timeNullCalls(cl *testsvc.TestClient, n int) (float64, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := cl.Null(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), nil
}

// Breakdown runs `calls` traced Null calls over the in-process exchange and
// compiles the stage accounting, then measures the Null fast path untraced
// and traced at 1-in-sampleEvery to report the observability overhead.
func Breakdown(calls, sampleEvery int) (*BreakdownResult, error) {
	if calls <= 0 {
		calls = 2000
	}
	if sampleEvery <= 0 {
		sampleEvery = 64
	}
	p, done, err := pair(trOpts{}, 4)
	if err != nil {
		return nil, err
	}
	defer done()
	cl := testsvc.NewTestClient(p.binding)

	// Warm the pools and the connection, then measure the untraced and the
	// sampled-tracing Null cost back to back on the same pair.
	if _, err := timeNullCalls(cl, 500); err != nil {
		return nil, err
	}
	const timingCalls = 4000
	untraced, err := timeNullCalls(cl, timingCalls)
	if err != nil {
		return nil, err
	}
	p.caller.Conn().SetTracing(sampleEvery, proto.DefaultTraceRing)
	p.server.Conn().SetTracing(sampleEvery, proto.DefaultTraceRing)
	traced, err := timeNullCalls(cl, timingCalls)
	if err != nil {
		return nil, err
	}

	// The accounting run traces every call into rings big enough that none
	// of the `calls` records is overwritten before the snapshot.
	ring := calls + 16
	p.caller.Conn().SetTracing(1, ring)
	p.server.Conn().SetTracing(1, ring)
	if _, err := timeNullCalls(cl, calls); err != nil {
		return nil, err
	}
	rep := proto.Account(
		p.caller.Conn().TraceRecords(),
		p.server.Conn().TraceRecords(),
	)

	res := &BreakdownResult{
		Report:         rep,
		SampleEvery:    sampleEvery,
		NullNsUntraced: untraced,
		NullNsTraced:   traced,
	}
	if untraced > 0 {
		res.OverheadPercent = 100 * (traced - untraced) / untraced
	}
	return res, nil
}
