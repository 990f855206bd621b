package proto

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"fireflyrpc/internal/faultnet"
	"fireflyrpc/internal/overload"
	"fireflyrpc/internal/transport"
	"fireflyrpc/internal/wire"
)

// Regression test for a duplicate-delivery race: a result frame duplicated
// by the network arrives on a second goroutine while the first copy is
// completing the call. The completion must happen under the call's lock
// (finishLocked) — finishing outside it let the duplicate slip past the
// finished check, rebuild the result buffer while the caller was reading
// it, and double-count completion stats. Run under -race; the faultnet
// wrapper deliberately delivers every inbound duplicate on a scheduler
// goroutine that races the inline original.
func TestDuplicatedResultFramesCompleteOnce(t *testing.T) {
	ex := transport.NewExchange()
	prof := faultnet.Profile{In: faultnet.Impair{Dup: 1}} // duplicate every inbound frame
	caller, server, sa, _ := faultyPair(t, ex, fastCfg(), echoHandler, prof, 21)

	const calls = 200
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			act := caller.NewActivity()
			for seq := uint32(1); seq <= calls/4; seq++ {
				res, err := caller.Call(context.Background(), sa, act, seq, 1, 1, []byte{byte(seq)}, nil)
				if err != nil {
					t.Errorf("seq %d: %v", seq, err)
					return
				}
				if len(res) != 2 || res[0] != byte(seq) || res[1] != 0xEE {
					t.Errorf("seq %d: corrupted result %v", seq, res)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := caller.Stats().CallsCompleted; got != calls {
		t.Fatalf("CallsCompleted = %d, want exactly %d (duplicates double-counted?)", got, calls)
	}
	if got := server.Stats().CallsServed; got != calls {
		t.Fatalf("CallsServed = %d, want exactly %d", got, calls)
	}
	if n := caller.outstandingCalls(); n != 0 {
		t.Fatalf("%d call-table entries leaked", n)
	}
}

// Karn's rule: a retransmitted call's round trip is ambiguous (which
// transmission did the result answer?) and must not feed the RTT
// estimator; and the adaptive retransmission interval never drops below
// the floor even when the estimate is tiny.
func TestKarnRuleAndRTOFloor(t *testing.T) {
	ex := transport.NewExchange()
	cfg := Config{RetransInterval: 40 * time.Millisecond, MaxRetries: 20, Workers: 2}
	caller, _, sa, ft := faultyPair(t, ex, cfg, echoHandler, faultnet.Loss(1), 22)

	// Heal the link mid-call: the first call completes only after at least
	// one retransmission.
	go func() {
		time.Sleep(60 * time.Millisecond)
		ft.Impairer().SetProfile(faultnet.Profile{})
	}()
	act := caller.NewActivity()
	if _, err := caller.Call(context.Background(), sa, act, 1, 1, 1, []byte("retried"), nil); err != nil {
		t.Fatal(err)
	}
	if caller.Stats().Retransmits == 0 {
		t.Fatal("call did not retransmit; the test exercised nothing")
	}
	if rtt, ok := caller.RTT(sa); ok {
		t.Fatalf("retransmitted sample fed the estimator (srtt=%v); Karn's rule violated", rtt)
	}

	// Clean calls over the healed link produce an estimate...
	for seq := uint32(2); seq <= 6; seq++ {
		if _, err := caller.Call(context.Background(), sa, act, seq, 1, 1, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := caller.RTT(sa); !ok {
		t.Fatal("clean calls produced no RTT estimate")
	}
	// ...and however fast the path (sub-ms on the in-memory exchange), the
	// retransmission interval respects the floor.
	floor := cfg.RetransInterval / 8
	ch := caller.channelOf(sa)
	if iv := ch.rttInterval(floor, cfg.RetransInterval); iv < floor {
		t.Fatalf("rttInterval = %v, below the %v floor", iv, floor)
	}
}

// Admission control end to end: a saturated server sheds with a wire-level
// rejection and the caller fails fast with ErrOverloaded instead of
// burning its retry budget.
func TestOverloadShedFailsFast(t *testing.T) {
	ex := transport.NewExchange()
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	cfg := Config{RetransInterval: 50 * time.Millisecond, MaxRetries: 8, Workers: 1}
	cfg.Admission = overload.Config{Policy: overload.FIFO, Capacity: 1}
	caller, server, sa := pair(t, ex, cfg,
		func(transport.Addr, wire.TraceCtx, uint32, uint16, []byte) ([]byte, error) {
			entered <- struct{}{}
			<-release
			return []byte("ok"), nil
		})
	defer close(release)

	// Call 1 occupies the single worker; call 2 fills the queue.
	p1, err := caller.goCall(context.Background(), sa, caller.NewActivity(), 1, 1, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	p2, err := caller.goCall(context.Background(), sa, caller.NewActivity(), 1, 1, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitCondition(t, 2*time.Second, func() error {
		if s, _ := server.AdmissionStats(); s.Depth != 1 {
			return errors.New("queue not yet full")
		}
		return nil
	})

	// Call 3 must be shed — and the error must arrive well before the
	// retry budget (8 × 50ms) would have expired.
	start := time.Now()
	_, err = caller.Call(context.Background(), sa, caller.NewActivity(), 1, 1, 1, nil, nil)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("overload rejection took %v; caller did not fail fast", elapsed)
	}

	if got := server.Stats().CallsShed; got != 1 {
		t.Fatalf("CallsShed = %d, want 1", got)
	}
	if got := caller.Stats().Overloads; got != 1 {
		t.Fatalf("Overloads = %d, want 1", got)
	}

	// The admitted calls still complete once the worker frees up.
	release <- struct{}{}
	if _, err := p1.Await(context.Background()); err != nil {
		t.Fatalf("call 1: %v", err)
	}
	release <- struct{}{}
	<-entered
	if _, err := p2.Await(context.Background()); err != nil {
		t.Fatalf("call 2: %v", err)
	}
	if n := caller.outstandingCalls(); n != 0 {
		t.Fatalf("%d call-table entries leaked", n)
	}
}

// A flood of concurrent calls far beyond the worker pool plus the default
// dispatch queue costs the server no goroutine per call: the queue admits
// what it can hold and the excess fails fast with ErrOverloaded instead of
// waiting on a goroutine of its own.
func TestFloodBoundedGoroutines(t *testing.T) {
	ex := transport.NewExchange()
	release := make(chan struct{})
	before := runtime.NumGoroutine()
	cfg := Config{RetransInterval: 50 * time.Millisecond, MaxRetries: 8, Workers: 2}
	caller, server, sa := pair(t, ex, cfg,
		func(transport.Addr, wire.TraceCtx, uint32, uint16, []byte) ([]byte, error) {
			<-release
			return nil, nil
		})
	const excess = 200
	capacity := cfg.Workers + defaultQueueCapacity
	pendings := make([]*Pending, capacity+excess)
	for i := range pendings {
		p, err := caller.goCall(context.Background(), sa, caller.NewActivity(), 1, 1, 1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		pendings[i] = p
	}
	// With the workers blocked, only shed calls can complete.
	waitCondition(t, 5*time.Second, func() error {
		answered := 0
		for _, p := range pendings {
			select {
			case <-p.Done():
				answered++
			default:
			}
		}
		if answered < excess {
			return fmt.Errorf("%d of %d excess calls answered", answered, excess)
		}
		return nil
	})
	// Two conns: each runs a retransmission engine, the server its workers.
	if grew := runtime.NumGoroutine() - before; grew > cfg.Workers+10 {
		t.Fatalf("goroutines grew by %d with %d calls in flight and %d workers", grew, len(pendings), cfg.Workers)
	}
	close(release)
	var ok, overloaded int
	for i, p := range pendings {
		switch _, err := p.Await(context.Background()); {
		case err == nil:
			ok++
		case errors.Is(err, ErrOverloaded):
			overloaded++
		default:
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if shed := server.Stats().CallsShed; int64(overloaded) != shed || overloaded < excess || ok < defaultQueueCapacity {
		t.Fatalf("%d served, %d overloaded, %d shed; want ≥%d served and ≥%d overloaded, all shed",
			ok, overloaded, shed, defaultQueueCapacity, excess)
	}
}

// A retransmission of a shed call is answered from the retained rejection
// (duplicate suppression applies to rejects exactly as to results).
func TestShedCallRetransmitAnsweredFromRetainedReject(t *testing.T) {
	ex := transport.NewExchange()
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	cfg := Config{RetransInterval: 30 * time.Millisecond, MaxRetries: 10, Workers: 1}
	cfg.Admission = overload.Config{Policy: overload.FIFO, Capacity: 1}
	caller, server, sa := pair(t, ex, cfg,
		func(transport.Addr, wire.TraceCtx, uint32, uint16, []byte) ([]byte, error) {
			entered <- struct{}{}
			<-release
			return nil, nil
		})
	defer close(release)

	p1, err := caller.goCall(context.Background(), sa, caller.NewActivity(), 1, 1, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	p2, err := caller.goCall(context.Background(), sa, caller.NewActivity(), 1, 1, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitCondition(t, 2*time.Second, func() error {
		if s, _ := server.AdmissionStats(); s.Depth != 1 {
			return errors.New("queue not yet full")
		}
		return nil
	})

	// Shed call, then spoof a retransmission of it from the same activity
	// and sequence: the server must answer from the retained reject, not
	// re-run admission (CallsShed stays 1).
	shedAct := caller.NewActivity()
	_, err = caller.Call(context.Background(), sa, shedAct, 7, 1, 1, []byte("shed me"), nil)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if got := server.Stats().CallsShed; got != 1 {
		t.Fatalf("CallsShed = %d, want 1", got)
	}
	// A second identical call (same activity+seq, as a retransmission
	// would be) is answered without a second shed.
	_, err = caller.Call(context.Background(), sa, shedAct, 7, 1, 1, []byte("shed me"), nil)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("retransmitted shed call: err = %v, want ErrOverloaded", err)
	}
	if got := server.Stats().CallsShed; got != 1 {
		t.Fatalf("CallsShed = %d after retransmission, want still 1 (retained reject)", got)
	}

	release <- struct{}{}
	p1.Await(context.Background())
	release <- struct{}{}
	<-entered
	p2.Await(context.Background())
}

// The stage-accounting identity (stage sum == measured end-to-end) must
// survive loss: a retransmission stretches the affected span rather than
// opening an unaccounted gap, and calls whose stamps were scrambled by
// a lost-and-resent frame are excluded from the join rather than skewing
// it. The acceptance gate is ±10% with retransmissions present.
func TestAccountingHoldsUnderLoss(t *testing.T) {
	ex := transport.NewExchange()
	cfg := Config{RetransInterval: 5 * time.Millisecond, MaxRetries: 20, Workers: 4}
	caller, server, sa, _ := faultyPair(t, ex, cfg, echoHandler, faultnet.Loss(0.05), 23)
	caller.SetTracing(1, 1024)
	server.SetTracing(1, 1024)
	act := caller.NewActivity()
	const calls = 400
	for i := 0; i < calls; i++ {
		if _, err := caller.Call(context.Background(), sa, act, uint32(i+1), 1, 1, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	rep := Account(caller.TraceRecords(), server.TraceRecords())
	if rep.Retransmits == 0 {
		t.Fatal("no retransmissions in the accounted set; the test exercised nothing")
	}
	if rep.Calls < calls/2 {
		t.Fatalf("only %d of %d calls accounted", rep.Calls, calls)
	}
	if un := math.Abs(rep.Unaccounted()); un > 0.10 {
		t.Fatalf("stage sum %.1fµs vs e2e %.1fµs: unaccounted %.1f%%, gate 10%%",
			rep.StageSumUs, rep.E2EUs, 100*un)
	}
}
