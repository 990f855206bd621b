package realbench

import (
	"time"

	"fireflyrpc/internal/core"
	"fireflyrpc/internal/testsvc"
)

// The trace-overhead cell: the acceptance witness for the tracing-on cost
// bound. It runs the same async Null fan-out workload twice in one process
// over the in-process exchange — once with tracing fully off, once at the
// production always-on posture (1-in-64 sampling plus wire trace-context
// propagation) — and reports the self-relative ratio. Rounds alternate
// between the two sides and each side keeps its best round, so machine-wide
// drift (thermal, co-tenants) cancels out of the ratio the CI gate bounds.

// TraceSide is one half of a TraceOverheadResult.
type TraceSide struct {
	Traced      bool    `json:"traced"`
	Calls       int     `json:"calls"` // per measured round
	NsPerOp     float64 `json:"ns_per_op"`
	CallsPerSec float64 `json:"calls_per_sec"`
}

// TraceOverheadResult is the full comparison.
type TraceOverheadResult struct {
	Outstanding int       `json:"outstanding"`
	Rounds      int       `json:"rounds"`
	Off         TraceSide `json:"off"`
	On          TraceSide `json:"on"`
	Ratio       float64   `json:"ratio"` // tracing-on ns/op ÷ tracing-off ns/op
}

// Exceeds reports whether the measured overhead crossed the bound (e.g.
// 1.05 for the ≤5% CI gate).
func (r *TraceOverheadResult) Exceeds(bound float64) bool { return r.Ratio > bound }

// traceSideState is one warmed pair plus its fan-out driver.
type traceSideState struct {
	cl   *core.Client
	pend []*core.Pending
	done func()
}

func newTraceSide(traced bool, outstanding int) (*traceSideState, error) {
	p, done, err := pair(trOpts{traced: traced}, 8)
	if err != nil {
		return nil, err
	}
	return &traceSideState{cl: p.binding.NewClient(), pend: make([]*core.Pending, 0, outstanding), done: done}, nil
}

// round drives n async Null calls at the side's fan-out width.
func (s *traceSideState) round(n, outstanding int) error {
	return fanout(s.cl, testsvc.TestProcNull, n, outstanding, nil, s.pend)
}

// TraceOverhead measures the tracing-on/off async Null ratio over the
// exchange. calls is the per-round call count; zero values pick defaults
// sized for a CI smoke.
func TraceOverhead(calls, outstanding int) (*TraceOverheadResult, error) {
	if calls <= 0 {
		calls = 20000
	}
	if outstanding <= 0 {
		outstanding = 64
	}
	const rounds = 5

	off, err := newTraceSide(false, outstanding)
	if err != nil {
		return nil, err
	}
	defer off.done()
	on, err := newTraceSide(true, outstanding)
	if err != nil {
		return nil, err
	}
	defer on.done()

	// Warm pools, slots, and (on the traced side) the FeatTrace session
	// before any round is timed.
	for i := 0; i < 4; i++ {
		if err := off.round(outstanding, outstanding); err != nil {
			return nil, err
		}
		if err := on.round(outstanding, outstanding); err != nil {
			return nil, err
		}
	}

	res := &TraceOverheadResult{
		Outstanding: outstanding,
		Rounds:      rounds,
		Off:         TraceSide{Traced: false, Calls: calls},
		On:          TraceSide{Traced: true, Calls: calls},
	}
	measure := func(s *traceSideState, side *TraceSide) error {
		start := time.Now()
		if err := s.round(calls, outstanding); err != nil {
			return err
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(calls)
		if side.NsPerOp == 0 || ns < side.NsPerOp {
			side.NsPerOp = ns
		}
		return nil
	}
	for i := 0; i < rounds; i++ {
		if err := measure(off, &res.Off); err != nil {
			return nil, err
		}
		if err := measure(on, &res.On); err != nil {
			return nil, err
		}
	}
	if res.Off.NsPerOp > 0 {
		res.Off.CallsPerSec = 1e9 / res.Off.NsPerOp
		res.Ratio = res.On.NsPerOp / res.Off.NsPerOp
	}
	if res.On.NsPerOp > 0 {
		res.On.CallsPerSec = 1e9 / res.On.NsPerOp
	}
	return res, nil
}
