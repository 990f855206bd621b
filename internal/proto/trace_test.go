package proto

import (
	"context"
	"math"
	"sync"
	"testing"

	"fireflyrpc/internal/transport"
	"fireflyrpc/internal/wire"
)

// nilHandler serves every call with an empty result: the proto-level Null
// procedure, used by the tracing tests so handler work never muddies the
// stage or allocation measurements.
func nilHandler(transport.Addr, wire.TraceCtx, uint32, uint16, []byte) ([]byte, error) {
	return nil, nil
}

func TestTraceSamplingDeterminism(t *testing.T) {
	ex := transport.NewExchange()
	caller, _, sa := pair(t, ex, fastCfg(), nilHandler)
	caller.SetTracing(4, 64)
	act := caller.NewActivity()
	for i := 0; i < 16; i++ {
		if _, err := caller.Call(context.Background(), sa, act, uint32(i+1), 1, 1, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	recs := caller.TraceRecords()
	if len(recs) != 4 {
		t.Fatalf("sampled %d of 16 calls at 1-in-4, want 4", len(recs))
	}
	// The modulo sampler picks calls 4, 8, 12, 16 for a sequential caller.
	for i, r := range recs {
		if want := uint32((i + 1) * 4); r.Seq != want {
			t.Errorf("record %d: seq %d, want %d", i, r.Seq, want)
		}
		if !r.Stamped(StageStart) || !r.Stamped(StageSent) ||
			!r.Stamped(StageResultRecv) || !r.Stamped(StageWakeup) {
			t.Errorf("record %d missing caller-side stamps: %+v", i, r.TS)
		}
		if r.Stamped(StageSrvRecv) {
			t.Errorf("record %d has server stamps with server tracing off", i)
		}
	}
}

func TestTraceRingWraparound(t *testing.T) {
	ex := transport.NewExchange()
	caller, _, sa := pair(t, ex, fastCfg(), nilHandler)
	caller.SetTracing(1, 4)
	act := caller.NewActivity()
	for i := 0; i < 10; i++ {
		if _, err := caller.Call(context.Background(), sa, act, uint32(i+1), 1, 1, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	recs := caller.TraceRecords()
	if len(recs) != 4 {
		t.Fatalf("ring of 4 returned %d records after 10 calls", len(recs))
	}
	// Oldest-surviving-first: the last four calls, in order.
	for i, r := range recs {
		if want := uint32(7 + i); r.Seq != want {
			t.Errorf("record %d: seq %d, want %d (oldest-first)", i, r.Seq, want)
		}
	}
}

func TestTraceConcurrentWriters(t *testing.T) {
	ex := transport.NewExchange()
	caller, server, sa := pair(t, ex, fastCfg(), nilHandler)
	caller.SetTracing(1, 32)
	server.SetTracing(1, 32)
	const workers, perWorker = 8, 25
	var wg, snapWg sync.WaitGroup
	stop := make(chan struct{})
	snapWg.Add(1)
	go func() {
		// Snapshot continuously while the ring wraps under the writers.
		defer snapWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, r := range caller.TraceRecords() {
				if r.Activity == 0 && r.Seq == 0 {
					t.Error("snapshot returned an unclaimed record")
					return
				}
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			act := caller.NewActivity()
			for i := 0; i < perWorker; i++ {
				if _, err := caller.Call(context.Background(), sa, act, uint32(i+1), 1, 1, nil, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	snapWg.Wait()
	if got := len(caller.TraceRecords()); got != 32 {
		t.Fatalf("full ring snapshot returned %d records, want 32", got)
	}
}

func TestAccountingSums(t *testing.T) {
	ex := transport.NewExchange()
	caller, server, sa := pair(t, ex, fastCfg(), nilHandler)
	caller.SetTracing(1, 256)
	server.SetTracing(1, 256)
	act := caller.NewActivity()
	const calls = 50
	for i := 0; i < calls; i++ {
		if _, err := caller.Call(context.Background(), sa, act, uint32(i+1), 1, 1, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	rep := Account(caller.TraceRecords(), server.TraceRecords())
	// A record is dropped only when the send-side stamp races the delivery
	// goroutine's arrival stamp; nearly every call must survive the join.
	if rep.Calls < calls*9/10 {
		t.Fatalf("accounted %d of %d calls", rep.Calls, calls)
	}
	if rep.E2EUs <= 0 {
		t.Fatalf("non-positive e2e: %+v", rep)
	}
	for _, st := range rep.Stages {
		if st.MeanUs < 0 {
			t.Errorf("negative stage mean: %+v", st)
		}
	}
	// The spans telescope, so the stage sum must equal the measured
	// end-to-end latency up to float rounding — this is the identity the
	// paper's Table VIII checks against its model.
	if un := rep.Unaccounted(); math.Abs(un) > 1e-6 {
		t.Fatalf("stage sum %.3fµs vs e2e %.3fµs: unaccounted %+.4f%%",
			rep.StageSumUs, rep.E2EUs, 100*un)
	}
}

func TestHistogramsRecorded(t *testing.T) {
	ex := transport.NewExchange()
	caller, _, sa := pair(t, ex, fastCfg(), nilHandler)
	caller.SetTracing(64, 64) // histograms record every call, sampled or not
	act := caller.NewActivity()
	const perMethod = 20
	for i := 0; i < perMethod; i++ {
		if _, err := caller.Call(context.Background(), sa, act, uint32(2*i+1), 1, 1, nil, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := caller.Call(context.Background(), sa, act, uint32(2*i+2), 1, 2, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	peers := caller.PeerHistograms()
	if len(peers) != 1 {
		t.Fatalf("peer histograms: %d entries, want 1", len(peers))
	}
	if peers[0].Hist.N != 2*perMethod {
		t.Errorf("peer histogram N=%d, want %d", peers[0].Hist.N, 2*perMethod)
	}
	sum := peers[0].Hist.Summarize()
	if sum.P50Us <= 0 || sum.P99Us < sum.P50Us || sum.MaxUs < sum.P99Us {
		t.Errorf("implausible summary: %+v", sum)
	}
	methods := caller.MethodHistograms()
	if len(methods) != 2 {
		t.Fatalf("method histograms: %d entries, want 2", len(methods))
	}
	for _, m := range methods {
		if m.Interface != 1 || (m.Proc != 1 && m.Proc != 2) {
			t.Errorf("unexpected method entry: %+v", m)
		}
		if m.Hist.N != perMethod {
			t.Errorf("method (%d,%d) N=%d, want %d", m.Interface, m.Proc, m.Hist.N, perMethod)
		}
	}
}

// TestTraceDisabledAllocBudget asserts the observability machinery costs the
// disabled fast path nothing: allocations per call after tracing has been
// enabled and disabled again must not exceed the never-enabled baseline.
func TestTraceDisabledAllocBudget(t *testing.T) {
	ex := transport.NewExchange()
	caller, server, sa := pair(t, ex, fastCfg(), nilHandler)
	act := caller.NewActivity()
	seq := uint32(0)
	call := func() {
		seq++
		if _, err := caller.Call(context.Background(), sa, act, seq, 1, 1, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		call() // warm pools
	}
	baseline := testing.AllocsPerRun(200, call)

	caller.SetTracing(64, 256)
	server.SetTracing(64, 256)
	for i := 0; i < 128; i++ {
		call() // exercise sampling + install the lazy histograms
	}
	caller.SetTracing(0, 0)
	server.SetTracing(0, 0)

	after := testing.AllocsPerRun(200, call)
	if after > baseline+0.05 {
		t.Fatalf("tracing-off path allocates %.2f objects/call, baseline %.2f", after, baseline)
	}
	t.Logf("allocs/call: baseline %.2f, after enable/disable %.2f", baseline, after)
}
