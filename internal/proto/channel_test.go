package proto

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fireflyrpc/internal/faultnet"
	"fireflyrpc/internal/transport"
	"fireflyrpc/internal/wire"
)

// waitGoroutines polls until the process goroutine count drops back to at
// most base+slack, failing the test otherwise. Go ships no goroutine-leak
// detector in the standard library, so the check is count-based: the
// protocol's per-call paths must not leave pumps, timers, or waiters
// behind.
func waitGoroutines(t *testing.T, base, slack int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d running, started with %d (slack %d)\n%s", n, base, slack, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitCondition polls until cond returns nil, failing with its last error
// after the deadline.
func waitCondition(t *testing.T, d time.Duration, cond func() error) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		err := cond()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLossyAsyncStressNoLeaks floods a lossy, duplicating link with
// asynchronous fan-out calls from many goroutines — some of them abandoned
// mid-flight via context cancellation — and asserts that every awaited
// call completes successfully and that nothing leaks: no call-table
// entries, no pooled frames (once retained results are released by Close),
// and no goroutines. The impairment is a seeded faultnet profile with
// ~30% round-trip loss, wrapped around the caller's port.
func TestLossyAsyncStressNoLeaks(t *testing.T) {
	baseGo := runtime.NumGoroutine()
	ex := transport.NewExchange()
	cfg := Config{RetransInterval: 10 * time.Millisecond, MaxRetries: 25, Workers: 8}
	server := NewConn(ex.Port("server"), cfg, echoHandler)
	prof := faultnet.Profile{
		Name: "stress",
		Out:  faultnet.Impair{Drop: 0.15, Dup: 0.08},
		In:   faultnet.Impair{Drop: 0.15, Dup: 0.08},
	}
	caller := NewConn(faultnet.Wrap(ex.Port("caller"), prof, 7), cfg, nil)
	sa := transport.AddrOf("server")

	const goroutines = 6
	const fanout = 4
	rounds := 30
	if testing.Short() {
		rounds = 8
	}
	big := bytes.Repeat([]byte("lossy"), 1200) // ~6 KB: fragmented calls too
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// One activity per outstanding call: the protocol allows a
			// single in-flight call per activity.
			acts := make([]uint64, fanout)
			for i := range acts {
				acts[i] = caller.NewActivity()
			}
			for r := 1; r <= rounds; r++ {
				pending := make([]*Pending, fanout)
				for i := 0; i < fanout; i++ {
					args := []byte{byte(g), byte(i), byte(r)}
					if (g+i+r)%11 == 0 {
						args = big
					}
					p, err := caller.goCall(context.Background(), sa, acts[i], uint32(r), 1, 1, args, nil)
					if err != nil {
						errs <- fmt.Errorf("g%d r%d i%d: goCall: %w", g, r, i, err)
						return
					}
					pending[i] = p
				}
				for i, p := range pending {
					if (g+i+r)%13 == 0 {
						// Abandon this call mid-flight: cancellation must
						// recycle the call slot and frames exactly like
						// completion. The result may legitimately have
						// already arrived, so any outcome is acceptable.
						cctx, cancel := context.WithCancel(context.Background())
						cancel()
						p.Await(cctx)
						continue
					}
					res, err := p.Await(context.Background())
					if err != nil {
						errs <- fmt.Errorf("g%d r%d i%d: Await: %w", g, r, i, err)
						return
					}
					if len(res) == 0 || res[len(res)-1] != 0xEE {
						errs <- fmt.Errorf("g%d r%d i%d: bad echo (%d bytes)", g, r, i, len(res))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if n := caller.outstandingCalls(); n != 0 {
		t.Fatalf("caller leaked %d call-table entries", n)
	}
	if n := caller.frames.InUse(); n != 0 {
		t.Fatalf("caller leaked %d pooled frames", n)
	}
	// The server legitimately retains one result frame per activity for
	// retransmission; Close releases them all.
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	if n := server.frames.InUse(); n != 0 {
		t.Fatalf("server leaked %d pooled frames after Close", n)
	}
	if err := caller.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, baseGo, 2)
}

// TestCallTimeoutBeatsRetryBudget pins down the deadline semantics: a
// server that answers every retransmission with "still executing" resets
// the retry budget forever, but Config.CallTimeout still bounds the call.
func TestCallTimeoutBeatsRetryBudget(t *testing.T) {
	ex := transport.NewExchange()
	release := make(chan struct{})
	cfg := Config{
		RetransInterval: 10 * time.Millisecond,
		MaxRetries:      3,
		Workers:         2,
		CallTimeout:     150 * time.Millisecond,
	}
	caller, server, sa := pair(t, ex, cfg,
		func(transport.Addr, wire.TraceCtx, uint32, uint16, []byte) ([]byte, error) {
			<-release
			return []byte("late"), nil
		})
	defer close(release)
	start := time.Now()
	_, err := caller.Call(context.Background(), sa, caller.NewActivity(), 1, 1, 1, nil, nil)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed < cfg.CallTimeout {
		t.Fatalf("returned after %v, before the %v deadline", elapsed, cfg.CallTimeout)
	}
	if elapsed > 10*cfg.CallTimeout {
		t.Fatalf("returned after %v, deadline %v not enforced promptly", elapsed, cfg.CallTimeout)
	}
	if server.Stats().InProgressAcks == 0 {
		t.Fatal("server sent no in-progress acks; the test did not exercise patience resets")
	}
}

// TestCtxDeadlineTightensCallTimeout checks that a context deadline earlier
// than Config.CallTimeout wins.
func TestCtxDeadlineTightensCallTimeout(t *testing.T) {
	ex := transport.NewExchange()
	cfg := Config{
		RetransInterval: 10 * time.Millisecond,
		MaxRetries:      100,
		Workers:         2,
		CallTimeout:     10 * time.Second,
	}
	caller := NewConn(ex.Port("caller"), cfg, nil)
	defer caller.Close()
	// No server attached: the call can never complete.
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := caller.Call(ctx, transport.AddrOf("nobody"), caller.NewActivity(), 1, 1, 1, nil, nil)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("call to nobody succeeded")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("ctx deadline not honored: returned after %v", elapsed)
	}
}

// TestCancelPreSend: a context cancelled before the call starts must fail
// fast without transmitting anything.
func TestCancelPreSend(t *testing.T) {
	ex := transport.NewExchange()
	caller, _, sa := pair(t, ex, fastCfg(), echoHandler)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := caller.Call(ctx, sa, caller.NewActivity(), 1, 1, 1, nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := caller.Stats().CallsSent; n != 0 {
		t.Fatalf("%d calls transmitted despite pre-send cancellation", n)
	}
	if n := caller.outstandingCalls(); n != 0 {
		t.Fatalf("%d call-table entries after pre-send cancellation", n)
	}
}

// TestCancelMidRetransmission cancels a call that is being retransmitted
// into the void and asserts it returns promptly with the context error,
// leaking neither call-table entries, nor heap slots, nor frames.
func TestCancelMidRetransmission(t *testing.T) {
	baseGo := runtime.NumGoroutine()
	ex := transport.NewExchange()
	cfg := Config{RetransInterval: 15 * time.Millisecond, MaxRetries: 1000, Workers: 2}
	caller := NewConn(ex.Port("caller"), cfg, nil)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(60 * time.Millisecond) // a few retransmissions deep
		cancel()
	}()
	start := time.Now()
	_, err := caller.Call(ctx, transport.AddrOf("nobody"), caller.NewActivity(), 1, 1, 1, []byte("x"), nil)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if caller.Stats().Retransmits == 0 {
		t.Fatal("call was not retransmitted before cancellation; test is not mid-retransmission")
	}
	if n := caller.outstandingCalls(); n != 0 {
		t.Fatalf("%d call-table entries leaked", n)
	}
	if n := caller.frames.InUse(); n != 0 {
		t.Fatalf("%d pooled frames leaked", n)
	}
	caller.retransMu.Lock()
	heapLen := len(caller.rheap)
	caller.retransMu.Unlock()
	if heapLen != 0 {
		t.Fatalf("%d entries left in the retransmission heap", heapLen)
	}
	if err := caller.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, baseGo, 2)
}

// TestCancelMidExecution cancels while the server handler is running: the
// caller returns immediately, the server observes the abandonment through
// the cancel packet, and the eventual result is neither sent nor retained.
func TestCancelMidExecution(t *testing.T) {
	ex := transport.NewExchange()
	entered := make(chan struct{})
	release := make(chan struct{})
	cfg := Config{RetransInterval: 10 * time.Millisecond, MaxRetries: 100, Workers: 2}
	caller, server, sa := pair(t, ex, cfg,
		func(transport.Addr, wire.TraceCtx, uint32, uint16, []byte) ([]byte, error) {
			close(entered)
			<-release
			return []byte("nobody wants this"), nil
		})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-entered
		cancel()
	}()
	_, err := caller.Call(ctx, sa, caller.NewActivity(), 1, 1, 1, []byte("work"), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitCondition(t, 2*time.Second, func() error {
		if server.Stats().Cancels == 0 {
			return errors.New("server never observed the cancel notice")
		}
		return nil
	})
	close(release) // let the handler finish into the void
	// The abandoned result must not be retained: once the handler returns,
	// the server's frame pool drains back to zero without a Close.
	waitCondition(t, 2*time.Second, func() error {
		if n := server.frames.InUse(); n != 0 {
			return fmt.Errorf("server retains %d frames for an abandoned call", n)
		}
		return nil
	})
	if n := caller.outstandingCalls(); n != 0 {
		t.Fatalf("%d caller call-table entries leaked", n)
	}
}

// TestCancelMidReassembly delivers only the first fragment of a two-packet
// call, then the caller's cancel notice: the server must give up the partial
// reassembly rather than waiting forever for the rest, keep the emptied
// buffer for the activity's next call, which reuses it, and drop it when the
// channel is evicted.
func TestCancelMidReassembly(t *testing.T) {
	ex := transport.NewExchange()
	argsBase := make(chan *byte, 1)
	server := NewConn(ex.Port("server"), fastCfg(), func(_ transport.Addr, _ wire.TraceCtx, _ uint32, _ uint16, args []byte) ([]byte, error) {
		argsBase <- &args[0]
		return nil, nil
	})
	t.Cleanup(func() { server.Close() })

	const activity = 424242
	frag := func(seq uint32, idx uint16, payload string) {
		t.Helper()
		h := wire.RPCHeader{
			Type: wire.TypeCall, Activity: activity, Seq: seq,
			FragIndex: idx, FragCount: 2, Interface: 1, Proc: 1,
			Flags: wire.FlagPleaseAck,
		}
		if idx == 1 {
			h.Flags = wire.FlagLastFrag
		}
		if err := ex.SendFrom("caller", "server", buildFrame(h, []byte(payload))); err != nil {
			t.Fatal(err)
		}
	}
	// inspect runs f on the activity under the channel lock once it exists.
	srcAddr := transport.AddrOf("caller")
	inspect := func(f func(act *serverAct) error) {
		t.Helper()
		waitCondition(t, 2*time.Second, func() error {
			ch := server.lookupChannel(srcAddr)
			if ch == nil {
				return errors.New("server has no channel for the caller yet")
			}
			ch.actsMu.Lock()
			defer ch.actsMu.Unlock()
			act := ch.acts[activity]
			if act == nil {
				return errors.New("no activity yet")
			}
			return f(act)
		})
	}

	first := strings.Repeat("first half", 4) // more than all of the next call
	frag(7, 0, first)
	inspect(func(act *serverAct) error {
		if act.next != 1 || string(act.argBuf) != first {
			return fmt.Errorf("reassembly state next=%d buf=%q, want 1 and the first fragment", act.next, act.argBuf)
		}
		return nil
	})

	cancelFrame := buildFrame(wire.RPCHeader{
		Type: wire.TypeCancel, Activity: activity, Seq: 7, FragCount: 1,
	}, nil)
	if err := ex.SendFrom("caller", "server", cancelFrame); err != nil {
		t.Fatal(err)
	}
	var partial *byte
	inspect(func(act *serverAct) error {
		if server.Stats().Cancels == 0 {
			return errors.New("cancel not observed")
		}
		if !act.abandoned || act.phase != phaseDone {
			return errors.New("activity not marked abandoned")
		}
		if len(act.argBuf) != 0 || cap(act.argBuf) == 0 {
			return fmt.Errorf("partial buffer not emptied and kept: len %d cap %d", len(act.argBuf), cap(act.argBuf))
		}
		partial = &act.argBuf[:1][0]
		return nil
	})

	// The activity's next call reassembles into the same buffer.
	frag(8, 0, "other half")
	frag(8, 1, "and a tail")
	select {
	case got := <-argsBase:
		if got != partial {
			t.Fatal("next call did not reuse the cancelled call's buffer")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("next call never executed")
	}
	var act *serverAct
	inspect(func(a *serverAct) error {
		if a.phase != phaseDone || a.argBuf == nil {
			return errors.New("buffer not yet returned by the worker")
		}
		act = a
		return nil
	})
	if n := server.Stats().CallsServed; n != 1 {
		t.Fatalf("%d calls served, want 1 (the cancelled call must not run)", n)
	}
	ch := server.lookupChannel(srcAddr)
	server.evictChannel(ch)
	ch.actsMu.Lock()
	held := act.argBuf != nil
	ch.actsMu.Unlock()
	if held {
		t.Fatal("eviction kept the activity's argument buffer")
	}
}

// TestIdlePeerEviction checks that a quiet peer's channel — call table,
// duplicate state, retained result frames, RTT estimate — is reclaimed by
// the sweeper, and that traffic resurrects the peer transparently.
func TestIdlePeerEviction(t *testing.T) {
	ex := transport.NewExchange()
	cfg := Config{
		RetransInterval: 10 * time.Millisecond,
		MaxRetries:      8,
		Workers:         2,
		PeerIdleTimeout: 80 * time.Millisecond,
	}
	caller, server, sa := pair(t, ex, cfg, echoHandler)
	act := caller.NewActivity()
	for seq := uint32(1); seq <= 3; seq++ {
		if _, err := caller.Call(context.Background(), sa, act, seq, 1, 1, []byte("warm"), nil); err != nil {
			t.Fatal(err)
		}
	}
	if server.numPeers() == 0 {
		t.Fatal("server tracked no peer after serving calls")
	}
	// The retained result frame must be released by eviction, without Close.
	waitCondition(t, 5*time.Second, func() error {
		if n := server.numPeers(); n != 0 {
			return fmt.Errorf("server still tracks %d peers", n)
		}
		if n := server.frames.InUse(); n != 0 {
			return fmt.Errorf("server still holds %d frames", n)
		}
		return nil
	})
	if server.Stats().PeersEvicted == 0 {
		t.Fatal("eviction counter did not move")
	}
	// The peer comes back on the next call.
	if _, err := caller.Call(context.Background(), sa, act, 10, 1, 1, []byte("again"), nil); err != nil {
		t.Fatalf("call after eviction: %v", err)
	}
}

// TestAsyncFanOutOneGoroutine drives 64 concurrent calls from a single
// goroutine through the async API — the engine, not goroutines, carries
// the in-flight state — and checks goroutine count stays flat.
func TestAsyncFanOutOneGoroutine(t *testing.T) {
	ex := transport.NewExchange()
	release := make(chan struct{})
	cfg := Config{RetransInterval: 50 * time.Millisecond, MaxRetries: 8, Workers: 4}
	caller, _, sa := pair(t, ex, cfg,
		func(_ transport.Addr, _ wire.TraceCtx, _ uint32, _ uint16, args []byte) ([]byte, error) {
			<-release
			return append([]byte(nil), args...), nil
		})
	const fanout = 64
	before := runtime.NumGoroutine()
	pendings := make([]*Pending, fanout)
	for i := range pendings {
		p, err := caller.goCall(context.Background(), sa, caller.NewActivity(), 1, 1, 1, []byte{byte(i)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		pendings[i] = p
	}
	during := runtime.NumGoroutine()
	// 64 single-packet calls in flight must not cost 64 goroutines. The
	// server side holds workers (capped at cfg.Workers), so allow a small
	// constant, not O(fanout).
	if during-before > 10 {
		t.Fatalf("goroutines grew by %d with %d calls in flight", during-before, fanout)
	}
	close(release)
	for i, p := range pendings {
		res, err := p.Await(context.Background())
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if len(res) != 1 || res[0] != byte(i) {
			t.Fatalf("call %d: bad result %v", i, res)
		}
	}
	if n := caller.outstandingCalls(); n != 0 {
		t.Fatalf("%d call-table entries leaked", n)
	}
}
