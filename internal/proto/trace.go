package proto

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Per-call stage tracing: the real-stack analogue of the paper's Tables
// VI–VIII. The paper's core claim is not the headline latency but the
// accounting — per-step costs that sum to the measured end-to-end time
// within a few percent. This file captures the equivalent stamps on the
// real stack: nanosecond timestamps at each stage of a call's life,
// written into a fixed ring of pooled records, sampled 1-in-N so the
// fast path's budgets survive, and compiled into a stage breakdown whose
// telescoping sum is checked against the measured end-to-end latency.
//
// Cost discipline: with tracing disabled the only fast-path work is one
// atomic load per call (sampleN == 0). Enabled, a non-sampled call pays
// one extra atomic add; a sampled call pays ~10 time stamps across both
// endpoints, each an atomic store into a pre-allocated ring slot — no
// per-call allocation either way, preserving the 1 alloc/call budget.

// Stage identifies one stamp point on a traced call's path. Client-side
// stages are stamped into the caller Conn's ring; server-side stages
// (Srv*) into the serving Conn's ring, triggered by wire.FlagTraced on the
// call packet. Account joins the two by (activity, seq).
type Stage uint8

const (
	// StageStart: StartCall entry — arguments marshalled, nothing sent.
	StageStart Stage = iota
	// StageSent: the final call fragment is handed to the transport.
	// Stamped just before the send, because delivery — and the server's
	// StageSrvRecv — can run before the send returns; stamped after, the
	// record could go non-monotone and Account would drop it.
	StageSent
	// StageRetransmit: the most recent retransmission of the call.
	StageRetransmit
	// StageSrvRecv: final call fragment arrived at the server (reassembly
	// complete, call ready to execute).
	StageSrvRecv
	// StageSrvQueued: call handed to the server's dispatch queue.
	StageSrvQueued
	// StageSrvDispatch: a worker picked the call up (queue wait ends).
	StageSrvDispatch
	// StageSrvDone: the handler returned.
	StageSrvDone
	// StageSrvResultSent: the final result fragment is handed to the
	// transport; stamped just before the send, as StageSent is.
	StageSrvResultSent
	// StageResultRecv: the completing result fragment arrived at the caller.
	StageResultRecv
	// StageWakeup: Await returned control to the calling goroutine.
	StageWakeup

	stageCount
)

var stageNames = [stageCount]string{
	"start", "sent", "retransmit", "srv-recv", "srv-queued",
	"srv-dispatch", "srv-done", "srv-result-sent", "result-recv", "wakeup",
}

// String names the stage.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// traceBase anchors every stamp to one process-wide monotonic origin, so
// records from a caller Conn and a server Conn in the same process (the
// exchange transport, UDP loopback) subtract cleanly.
var traceBase = time.Now()

// traceNow returns nanoseconds since traceBase, always ≥ 1 so a zero
// timestamp unambiguously means "stage not reached".
func traceNow() int64 {
	ns := int64(time.Since(traceBase))
	if ns < 1 {
		ns = 1
	}
	return ns
}

// traceRec is one in-ring record. Every field is atomic: the ring wraps,
// so a straggling call may stamp a slot a newer call has reclaimed — the
// generation check in snapshot turns that into a dropped record instead of
// a torn read or a data race.
type traceRec struct {
	gen      atomic.Uint64 // bumped on claim; re-checked by snapshot
	activity atomic.Uint64
	seq      atomic.Uint32
	retries  atomic.Int32
	// Distributed-trace identity (tracectx.go): the trace this call belongs
	// to, the span both endpoints share for it, and the caller's ambient
	// parent span. Zero on records from peers that never sent a context.
	traceID atomic.Uint64
	spanID  atomic.Uint64
	parent  atomic.Uint64
	iface   atomic.Uint32
	proc    atomic.Uint32
	ts      [stageCount]atomic.Int64
}

func (r *traceRec) claim(activity uint64, seq uint32) {
	r.gen.Add(1)
	r.activity.Store(activity)
	r.seq.Store(seq)
	r.retries.Store(0)
	r.traceID.Store(0)
	r.spanID.Store(0)
	r.parent.Store(0)
	r.iface.Store(0)
	r.proc.Store(0)
	for i := range r.ts {
		r.ts[i].Store(0)
	}
}

func (r *traceRec) setSpan(traceID, spanID, parent uint64) {
	r.traceID.Store(traceID)
	r.spanID.Store(spanID)
	r.parent.Store(parent)
}

func (r *traceRec) setMethod(iface uint32, proc uint16) {
	r.iface.Store(iface)
	r.proc.Store(uint32(proc))
}

func (r *traceRec) stamp(s Stage)             { r.ts[s].Store(traceNow()) }
func (r *traceRec) stampAt(s Stage, ns int64) { r.ts[s].Store(ns) }

// TraceRecord is the exported snapshot of one sampled call: timestamps in
// nanoseconds since a process-wide origin, zero meaning the stage was not
// reached (or belongs to the other endpoint's ring). TraceID/SpanID/Parent
// carry the distributed-trace identity when the call ran with a trace
// context; records from a caller and a server stamp the same SpanID, which
// is how AssembleSpans joins them into one span.
type TraceRecord struct {
	Activity  uint64
	Seq       uint32
	Retries   int32
	TraceID   uint64
	SpanID    uint64
	Parent    uint64
	Interface uint32
	Proc      uint16
	TS        [stageCount]int64
}

// Stamped reports whether stage s was recorded.
func (r *TraceRecord) Stamped(s Stage) bool { return r.TS[s] != 0 }

// tracer is the per-Conn sampling state plus the record ring. The ring is
// allocated once at enable time; records are pooled by wraparound.
type tracer struct {
	sampleN atomic.Int64 // 0 = disabled; N = sample one call in N
	ctr     atomic.Uint64
	next    atomic.Uint64
	ring    atomic.Pointer[[]traceRec]
	mu      sync.Mutex // serializes SetTracing
}

// DefaultTraceRing is the ring size SetTracing uses when given ringSize ≤ 0.
const DefaultTraceRing = 1024

// sample returns a claimed ring record for this call if tracing is enabled
// and the 1-in-N sampler selects it, else nil, plus whether tracing is
// enabled at all (so the call path learns both from the one atomic load it
// is budgeted). The sampler is a plain modulo counter, so a single
// sequential caller sees deterministic selection (calls N, 2N, 3N, …).
func (t *tracer) sample() (*traceRec, bool) {
	n := t.sampleN.Load()
	if n == 0 {
		return nil, false
	}
	if t.ctr.Add(1)%uint64(n) != 0 {
		return nil, true
	}
	return t.claimSlot(), true
}

// claimFlagged claims a record for a call another endpoint sampled (the
// FlagTraced bit), bypassing the local sampler; nil if tracing is off here.
func (t *tracer) claimFlagged() *traceRec {
	if t.sampleN.Load() == 0 {
		return nil
	}
	return t.claimSlot()
}

func (t *tracer) claimSlot() *traceRec {
	ringp := t.ring.Load()
	if ringp == nil {
		return nil
	}
	ring := *ringp
	i := t.next.Add(1) - 1
	return &ring[i%uint64(len(ring))]
}

// SetTracing enables (sampleN ≥ 1) or disables (sampleN ≤ 0) stage tracing
// and latency histograms on this endpoint. sampleN is the sampling stride:
// 1 traces every call, 64 one call in 64. ringSize bounds the record ring
// (≤ 0 selects DefaultTraceRing); the ring is allocated here, never on the
// call path. Server-side stages are only recorded while tracing is enabled
// on the serving Conn too.
func (c *Conn) SetTracing(sampleN, ringSize int) {
	t := &c.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	if sampleN <= 0 {
		t.sampleN.Store(0)
		return
	}
	if ringSize <= 0 {
		ringSize = DefaultTraceRing
	}
	if cur := t.ring.Load(); cur == nil || len(*cur) != ringSize {
		ring := make([]traceRec, ringSize)
		t.ring.Store(&ring)
		t.next.Store(0)
	}
	t.sampleN.Store(int64(sampleN))
}

// TracingEnabled reports whether stage tracing is on.
func (c *Conn) TracingEnabled() bool { return c.trace.sampleN.Load() != 0 }

// TraceRecords snapshots the ring's current records, oldest-surviving
// first. Records claimed mid-snapshot are dropped (generation re-check)
// rather than returned torn.
func (c *Conn) TraceRecords() []TraceRecord {
	ringp := c.trace.ring.Load()
	if ringp == nil {
		return nil
	}
	ring := *ringp
	n := c.trace.next.Load()
	count := uint64(len(ring))
	if n < count {
		count = n
	}
	out := make([]TraceRecord, 0, count)
	// Oldest surviving slot is next % len when the ring has wrapped.
	start := uint64(0)
	if n > uint64(len(ring)) {
		start = n % uint64(len(ring))
	}
	for i := uint64(0); i < count; i++ {
		r := &ring[(start+i)%uint64(len(ring))]
		gen := r.gen.Load()
		var rec TraceRecord
		rec.Activity = r.activity.Load()
		rec.Seq = r.seq.Load()
		rec.Retries = r.retries.Load()
		rec.TraceID = r.traceID.Load()
		rec.SpanID = r.spanID.Load()
		rec.Parent = r.parent.Load()
		rec.Interface = r.iface.Load()
		rec.Proc = uint16(r.proc.Load())
		for s := range rec.TS {
			rec.TS[s] = r.ts[s].Load()
		}
		if r.gen.Load() != gen || rec.Activity == 0 && rec.Seq == 0 {
			continue // reclaimed mid-read, or never claimed
		}
		out = append(out, rec)
	}
	return out
}

// ---------------------------------------------------------------------------
// Accounting: compile trace records into a Table VI/VII-style breakdown.
// ---------------------------------------------------------------------------

// stageSpan is one row of the breakdown: the interval between two stamps.
// The spans telescope from StageStart to StageWakeup, so their sum over a
// fully-stamped call equals its end-to-end latency exactly — the report's
// tolerance check guards the joining and stamping logic, the way Table
// VIII checks the model against the measurement.
type stageSpan struct {
	name     string
	from, to Stage
}

var accountingSpans = []stageSpan{
	{"caller: build + send call", StageStart, StageSent},
	{"wire + recv demux (→ server)", StageSent, StageSrvRecv},
	{"server: enqueue", StageSrvRecv, StageSrvQueued},
	{"server: dispatch-queue wait", StageSrvQueued, StageSrvDispatch},
	{"server: execute handler", StageSrvDispatch, StageSrvDone},
	{"server: build + send result", StageSrvDone, StageSrvResultSent},
	{"wire + recv demux (→ caller)", StageSrvResultSent, StageResultRecv},
	{"caller: wakeup", StageResultRecv, StageWakeup},
}

// StageStat is one accounted stage across the joined records.
type StageStat struct {
	Name   string  `json:"name"`
	MeanUs float64 `json:"mean_us"`
}

// AccountingReport is the compiled breakdown. Calls counts only records
// with every stage stamped on both sides; StageSumUs is the sum of stage
// means and E2EUs the mean measured wakeup−start time, which must agree
// within the caller's tolerance for the accounting to be trusted.
type AccountingReport struct {
	Calls       int         `json:"calls"`
	Retransmits int         `json:"retransmits"`
	Stages      []StageStat `json:"stages"`
	StageSumUs  float64     `json:"stage_sum_us"`
	E2EUs       float64     `json:"e2e_us"`
}

// Account joins trace records from one or more rings (typically the caller
// Conn's and the server Conn's) by call identity and compiles the stage
// breakdown over every call that was fully stamped on both sides.
func Account(recordSets ...[]TraceRecord) AccountingReport {
	type key struct {
		activity uint64
		seq      uint32
	}
	merged := make(map[key]*TraceRecord)
	var order []key
	for _, set := range recordSets {
		for i := range set {
			r := &set[i]
			k := key{r.Activity, r.Seq}
			m := merged[k]
			if m == nil {
				cp := *r
				merged[k] = &cp
				order = append(order, k)
				continue
			}
			mergeTraceRecord(m, r)
		}
	}
	rep := AccountingReport{Stages: make([]StageStat, len(accountingSpans))}
	for i, sp := range accountingSpans {
		rep.Stages[i].Name = sp.name
	}
	sums := make([]float64, len(accountingSpans))
	var e2eSum float64
	for _, k := range order {
		m := merged[k]
		complete := true
		for _, sp := range accountingSpans {
			if m.TS[sp.from] == 0 || m.TS[sp.to] == 0 || m.TS[sp.to] < m.TS[sp.from] {
				complete = false
				break
			}
		}
		if !complete {
			continue
		}
		rep.Calls++
		rep.Retransmits += int(m.Retries)
		for i, sp := range accountingSpans {
			sums[i] += float64(m.TS[sp.to] - m.TS[sp.from])
		}
		e2eSum += float64(m.TS[StageWakeup] - m.TS[StageStart])
	}
	if rep.Calls > 0 {
		n := float64(rep.Calls)
		for i := range sums {
			rep.Stages[i].MeanUs = sums[i] / n / 1e3
			rep.StageSumUs += rep.Stages[i].MeanUs
		}
		rep.E2EUs = e2eSum / n / 1e3
	}
	return rep
}

// mergeTraceRecord folds r's stamps and identity into m (both halves of
// one call, joined by (activity, seq)): zero timestamps fill in from the
// other endpoint's record, and the distributed-trace identity keeps
// whichever side carries it.
func mergeTraceRecord(m, r *TraceRecord) {
	for s := range m.TS {
		if m.TS[s] == 0 {
			m.TS[s] = r.TS[s]
		}
	}
	if r.Retries > m.Retries {
		m.Retries = r.Retries
	}
	if m.TraceID == 0 {
		m.TraceID = r.TraceID
	}
	if m.SpanID == 0 {
		m.SpanID = r.SpanID
	}
	if m.Parent == 0 {
		m.Parent = r.Parent
	}
	if m.Interface == 0 && m.Proc == 0 {
		m.Interface, m.Proc = r.Interface, r.Proc
	}
}

// Accounting compiles this Conn's own ring. A full-path breakdown joins
// both endpoints' rings: proto.Account(caller.TraceRecords(),
// server.TraceRecords()).
func (c *Conn) Accounting() AccountingReport {
	return Account(c.TraceRecords())
}

// Unaccounted returns the fraction of measured end-to-end latency the
// stage sum fails to explain (signed; near zero when the accounting
// holds).
func (r *AccountingReport) Unaccounted() float64 {
	if r.E2EUs == 0 {
		return 0
	}
	return (r.E2EUs - r.StageSumUs) / r.E2EUs
}

// Format renders the breakdown as a Table VI/VII-style text table.
func (r *AccountingReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %10s %8s\n", "stage", "mean µs", "% e2e")
	for _, st := range r.Stages {
		pct := 0.0
		if r.E2EUs > 0 {
			pct = 100 * st.MeanUs / r.E2EUs
		}
		fmt.Fprintf(&b, "%-34s %10.3f %7.1f%%\n", st.Name, st.MeanUs, pct)
	}
	fmt.Fprintf(&b, "%-34s %10.3f\n", "stage sum", r.StageSumUs)
	fmt.Fprintf(&b, "%-34s %10.3f  (unaccounted %+.2f%%)\n",
		"measured end-to-end", r.E2EUs, 100*r.Unaccounted())
	fmt.Fprintf(&b, "calls accounted: %d   retransmissions: %d\n",
		r.Calls, r.Retransmits)
	return b.String()
}
