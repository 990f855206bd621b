package proto

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"fireflyrpc/internal/transport"
	"fireflyrpc/internal/wire"
)

// tcCapture is a Handler that records every received trace context.
type tcCapture struct {
	mu  sync.Mutex
	got []wire.TraceCtx
}

func (tc *tcCapture) handle(_ transport.Addr, c wire.TraceCtx, _ uint32, _ uint16, _ []byte) ([]byte, error) {
	tc.mu.Lock()
	tc.got = append(tc.got, c)
	tc.mu.Unlock()
	return nil, nil
}

func (tc *tcCapture) last(t *testing.T) wire.TraceCtx {
	t.Helper()
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if len(tc.got) == 0 {
		t.Fatal("server received no calls")
	}
	return tc.got[len(tc.got)-1]
}

// tracedPair builds a caller and a trace-aware server on one exchange.
func tracedPair(t *testing.T, cfg Config, th Handler) (caller *Conn, server *Conn, sa transport.Addr) {
	t.Helper()
	ex := transport.NewExchange()
	cp := ex.Port("caller")
	sp := ex.Port("server")
	caller = NewConn(cp, cfg, nil)
	server = NewConn(sp, cfg, th)
	t.Cleanup(func() {
		caller.Close()
		server.Close()
	})
	return caller, server, transport.AddrOf("server")
}

func findRec(recs []TraceRecord, seq uint32) *TraceRecord {
	for i := range recs {
		if recs[i].Seq == seq {
			return &recs[i]
		}
	}
	return nil
}

// TestTraceCtxPropagation: once FeatTrace is negotiated, a sampled call
// ships a trace-context prefix whose ids match the caller's stage record,
// and the server sees it.
func TestTraceCtxPropagation(t *testing.T) {
	cap := &tcCapture{}
	caller, server, sa := tracedPair(t, fastCfg(), cap.handle)
	caller.SetTracing(1, 64)
	server.SetTracing(1, 64)
	act := caller.NewActivity()
	// The first call rides the pending (legacy-implied) session: no prefix.
	if _, err := caller.Call(context.Background(), sa, act, 1, 1, 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	waitSessionState(t, caller, sa, sessNegotiated)
	if _, err := caller.Call(context.Background(), sa, act, 2, 1, 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	got := cap.last(t)
	if !got.Sampled() {
		t.Fatalf("negotiated call carried no sampled trace context: %+v", got)
	}
	rec := findRec(caller.TraceRecords(), 2)
	if rec == nil {
		t.Fatal("caller has no trace record for seq 2")
	}
	if rec.TraceID != got.TraceID || rec.SpanID != got.SpanID {
		t.Fatalf("wire ids (%x,%x) != caller record ids (%x,%x)",
			got.TraceID, got.SpanID, rec.TraceID, rec.SpanID)
	}
	if rec.Parent != 0 {
		t.Fatalf("root call has parent %x", rec.Parent)
	}
	// Both halves join into one span carrying both sides' stamps.
	srec := findRec(server.TraceRecords(), 2)
	if srec == nil {
		t.Fatal("server has no trace record for seq 2")
	}
	if srec.SpanID != rec.SpanID {
		t.Fatalf("server span %x != caller span %x", srec.SpanID, rec.SpanID)
	}
	spans := AssembleSpans(caller.TraceRecords(), server.TraceRecords())
	var joined *Span
	for i := range spans {
		if spans[i].Seq == 2 {
			joined = &spans[i]
		}
	}
	if joined == nil {
		t.Fatal("no assembled span for seq 2")
	}
	if joined.TS[StageStart] == 0 || joined.TS[StageSrvRecv] == 0 || joined.TS[StageWakeup] == 0 {
		t.Fatalf("joined span missing stamps from one side: %+v", joined.TS)
	}
}

// TestTraceCtxInheritance: a call issued under a context carrying a sampled
// parent trace joins that trace — inherited trace id, fresh child span,
// parent link — even when the local sampler would not have picked it.
func TestTraceCtxInheritance(t *testing.T) {
	cap := &tcCapture{}
	caller, _, sa := tracedPair(t, fastCfg(), cap.handle)
	caller.SetTracing(1000000, 64) // sampler effectively never fires on its own
	act := caller.NewActivity()
	if _, err := caller.Call(context.Background(), sa, act, 1, 1, 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	waitSessionState(t, caller, sa, sessNegotiated)

	parent := wire.TraceCtx{TraceID: 0xfeedf00d, SpanID: 0xbeef, Flags: wire.TraceFlagSampled}
	ctx := ContextWithTrace(context.Background(), parent)
	if _, err := caller.Call(ctx, sa, act, 2, 1, 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	got := cap.last(t)
	if got.TraceID != parent.TraceID {
		t.Fatalf("child call trace id %x, want inherited %x", got.TraceID, parent.TraceID)
	}
	if !got.Sampled() || got.SpanID == 0 || got.SpanID == parent.SpanID {
		t.Fatalf("child span id %x invalid (parent span %x)", got.SpanID, parent.SpanID)
	}
	rec := findRec(caller.TraceRecords(), 2)
	if rec == nil {
		t.Fatal("parent-forced call left no trace record")
	}
	if rec.Parent != parent.SpanID || rec.TraceID != parent.TraceID {
		t.Fatalf("record parent/trace = %x/%x, want %x/%x",
			rec.Parent, rec.TraceID, parent.SpanID, parent.TraceID)
	}

	// With tracing fully off, the ambient context is ignored entirely.
	caller.SetTracing(0, 0)
	if _, err := caller.Call(ctx, sa, act, 3, 1, 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := cap.last(t); got.Valid() {
		t.Fatalf("tracing-off call still shipped a trace context: %+v", got)
	}
}

// TestTraceLegacyV0Compat: against a hello-less v0 peer the caller falls
// back to the legacy session — no trace-context prefix ever reaches the
// wire (the old binary would misparse it as arguments), the legacy
// FlagTraced stage accounting still works end to end, and the fallback
// itself lands in the flight recorder.
func TestTraceLegacyV0Compat(t *testing.T) {
	ex := transport.NewExchange()
	cp := ex.Port("caller")
	sp := ex.Port("server")
	ccfg := fastCfg()
	ccfg.HelloTimeout = 10 * time.Millisecond
	scfg := fastCfg()
	scfg.DisableHello = true
	caller := NewConn(cp, ccfg, nil)
	server := NewConn(sp, scfg, echoHandler)
	t.Cleanup(func() {
		caller.Close()
		server.Close()
	})
	sa := transport.AddrOf("server")
	caller.SetTracing(1, 64)
	server.SetTracing(1, 64)
	act := caller.NewActivity()
	payload := []byte("unchanged across the v0 boundary")
	want := append(append([]byte(nil), payload...), 0xEE) // echoHandler's marker
	for i := 0; i < 5; i++ {
		res, err := caller.Call(context.Background(), sa, act, uint32(i+1), 1, 1, payload, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res, want) {
			t.Fatalf("call %d: echo mismatch (prefix leaked into args?): %q", i+1, res)
		}
	}
	waitSessionState(t, caller, sa, sessLegacy)
	for i := 5; i < 10; i++ {
		res, err := caller.Call(context.Background(), sa, act, uint32(i+1), 1, 1, payload, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res, want) {
			t.Fatalf("legacy call %d: echo mismatch: %q", i+1, res)
		}
	}
	// PR 3's stage accounting joins exactly as before the trace context
	// existed: the server stamps via FlagTraced, keyed by (activity, seq).
	rep := Account(caller.TraceRecords(), server.TraceRecords())
	if rep.Calls < 8 {
		t.Fatalf("accounted only %d of 10 legacy calls", rep.Calls)
	}
	srec := findRec(server.TraceRecords(), 10)
	if srec == nil || !srec.Stamped(StageSrvRecv) {
		t.Fatal("server missed stage stamps on a legacy traced call")
	}
	if srec.SpanID != 0 {
		t.Fatalf("legacy server record carries a span id %x", srec.SpanID)
	}
	// The fallback was recorded as an anomaly.
	var sawFallback bool
	for _, ev := range caller.FlightEvents() {
		if ev.Kind == "session-fallback" {
			sawFallback = true
		}
	}
	if !sawFallback {
		t.Fatal("session fallback missing from the flight recorder")
	}
}

// TestTraceCtxMultiFragment: the prefix rides in fragment 0 of a fragmented
// call without corrupting reassembly, and the span still joins both halves.
func TestTraceCtxMultiFragment(t *testing.T) {
	ex := transport.NewExchange()
	cp := ex.Port("caller")
	sp := ex.Port("server")
	caller := NewConn(cp, fastCfg(), nil)
	server := NewConn(sp, fastCfg(), echoHandler)
	t.Cleanup(func() {
		caller.Close()
		server.Close()
	})
	sa := transport.AddrOf("server")
	caller.SetTracing(1, 64)
	server.SetTracing(1, 64)
	act := caller.NewActivity()
	if _, err := caller.Call(context.Background(), sa, act, 1, 1, 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	waitSessionState(t, caller, sa, sessNegotiated)

	args := bytes.Repeat([]byte("0123456789abcdef"), 3*wire.MaxSinglePacketPayload/16)
	want := append(append([]byte(nil), args...), 0xEE) // echoHandler's marker
	res, err := caller.Call(context.Background(), sa, act, 2, 1, 1, args, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res, want) {
		t.Fatalf("fragmented echo mismatch: %d bytes back, want %d", len(res), len(want))
	}
	spans := AssembleSpans(caller.TraceRecords(), server.TraceRecords())
	var joined *Span
	for i := range spans {
		if spans[i].Seq == 2 {
			joined = &spans[i]
		}
	}
	if joined == nil {
		t.Fatal("no span for the fragmented call")
	}
	if joined.SpanID == 0 || joined.TS[StageSrvRecv] == 0 || joined.TS[StageWakeup] == 0 {
		t.Fatalf("fragmented span incomplete: %+v", joined)
	}
}

// TestFlightRecorderAllocBudget: recording an anomaly allocates nothing —
// the ring is embedded and every store is atomic.
func TestFlightRecorderAllocBudget(t *testing.T) {
	var f flightRecorder
	if a := testing.AllocsPerRun(1000, func() {
		f.record(FlightRetransmit, 7, 3, 1)
	}); a != 0 {
		t.Fatalf("flight record allocates %.2f objects/event, want 0", a)
	}
	var w burstWindow
	if a := testing.AllocsPerRun(1000, func() {
		w.hit(int64(time.Second), 1<<62)
	}); a != 0 {
		t.Fatalf("burst window allocates %.2f objects/event, want 0", a)
	}
}

// TestFlightTimeoutDump: a forced call timeout auto-dumps the ring, and the
// dump contains the triggering call's events.
func TestFlightTimeoutDump(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	ex := transport.NewExchange()
	cfg := fastCfg()
	cfg.RetransInterval = 30 * time.Millisecond
	cfg.CallTimeout = 150 * time.Millisecond
	caller, _, sa := pair(t, ex, cfg, func(transport.Addr, wire.TraceCtx, uint32, uint16, []byte) ([]byte, error) {
		<-block
		return nil, nil
	})
	act := caller.NewActivity()
	if _, err := caller.Call(context.Background(), sa, act, 1, 1, 1, nil, nil); err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	dump, n := caller.LastFlightDump()
	if n < 1 || dump == nil {
		t.Fatalf("no flight dump after a call timeout (dumps=%d)", n)
	}
	if dump.Trigger != "call-timeout" {
		t.Fatalf("dump trigger %q, want call-timeout", dump.Trigger)
	}
	var sawTimeout bool
	for _, ev := range dump.Events {
		if ev.Kind == "timeout" && ev.Activity == act && ev.Seq == 1 {
			sawTimeout = true
		}
	}
	if !sawTimeout {
		t.Fatalf("dump lacks the triggering call's timeout event: %+v", dump.Events)
	}
}

// TestFlightOverloadBurstDump: crossing the overload-burst threshold within
// the window dumps the ring exactly once.
func TestFlightOverloadBurstDump(t *testing.T) {
	ex := transport.NewExchange()
	caller, _, _ := pair(t, ex, fastCfg(), nilHandler)
	for i := 0; i < flightOverloadBurst; i++ {
		caller.noteOverloadRecv(9, uint32(i+1))
	}
	dump, n := caller.LastFlightDump()
	if n != 1 || dump == nil {
		t.Fatalf("dumps = %d after crossing the burst threshold, want 1", n)
	}
	if dump.Trigger != "overload-burst" {
		t.Fatalf("dump trigger %q, want overload-burst", dump.Trigger)
	}
	var overloads int
	for _, ev := range dump.Events {
		if ev.Kind == "overload" {
			overloads++
		}
	}
	if overloads != flightOverloadBurst {
		t.Fatalf("dump holds %d overload events, want %d", overloads, flightOverloadBurst)
	}
}
