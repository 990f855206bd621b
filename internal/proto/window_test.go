package proto

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"fireflyrpc/internal/clock"
	"fireflyrpc/internal/transport"
	"fireflyrpc/internal/wire"
)

// dropTransport drops every frame its node sends that drop reports true for.
type dropTransport struct {
	transport.Transport
	drop func(wire.RPCHeader) bool
}

func (d *dropTransport) Send(dst transport.Addr, frame []byte) error {
	if h, _, err := wire.UnmarshalRPC(frame); err == nil && d.drop(h) {
		return nil
	}
	return d.Transport.Send(dst, frame)
}

// dropFirst reports true for the first frame of type typ and fragment idx
// only.
func dropFirst(typ wire.PacketType, idx uint16) func(wire.RPCHeader) bool {
	var dropped atomic.Bool
	return func(h wire.RPCHeader) bool {
		return h.Type == typ && h.FragIndex == idx && dropped.CompareAndSwap(false, true)
	}
}

// sends counts how often each of a message's n-1 non-final fragments of
// type typ left through t, retransmissions included.
func (t *tapTransport) sends(typ wire.PacketType, n int) []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	count := make([]int, n-1)
	for _, f := range t.frames {
		if f.hdr.Type == typ && int(f.hdr.FragIndex) < n-1 {
			count[f.hdr.FragIndex]++
		}
	}
	return count
}

// windowedArgs is a 21-fragment message: fragments 0–15 form the first
// window, 16–19 the second, and 20 is the final fragment.
func windowedArgs() []byte {
	args := make([]byte, 20*wire.MaxSinglePacketPayload+100)
	for i := range args {
		args[i] = byte(i*13 + i>>9)
	}
	return args
}

// TestWindowedFragments pins the windowed sender on both directions of a
// 21-fragment call: where the cumulative acks are asked for, how a window
// with a lost fragment is recovered, that a stalled result stream holds no
// server worker, and that result streams of one activity which overlap — a
// caller gave up mid-result and called again — leave no worker stranded.
func TestWindowedFragments(t *testing.T) {
	const frags = 21
	sa := transport.AddrOf("server")

	t.Run("placement", func(t *testing.T) {
		ex := transport.NewExchange()
		cfg := fastCfg()
		cfg.RetransInterval = time.Second // keep retransmissions out of the count
		callerTap := &tapTransport{Transport: ex.Port("caller")}
		serverTap := &tapTransport{Transport: ex.Port("server")}
		caller := NewConn(callerTap, cfg, nil)
		server := NewConn(serverTap, cfg, copyHandler)
		t.Cleanup(func() {
			caller.Close()
			server.Close()
		})
		args := windowedArgs()
		res, err := caller.Call(context.Background(), sa, caller.NewActivity(), 1, 1, 1, args, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res, args) {
			t.Fatal("round trip mangled")
		}
		for _, dir := range []struct {
			what string
			tap  *tapTransport
			typ  wire.PacketType
		}{{"call", callerTap, wire.TypeCall}, {"result", serverTap, wire.TypeResult}} {
			frames := dir.tap.take(dir.typ)
			if len(frames) != frags {
				t.Fatalf("%s: %d frames, want %d", dir.what, len(frames), frags)
			}
			for i, f := range frames {
				want := i == 15 || i == 19
				if got := f.hdr.Flags&wire.FlagPleaseAck != 0; got != want {
					t.Errorf("%s fragment %d: FlagPleaseAck %v, want %v", dir.what, i, got, want)
				}
			}
		}
		if cs, ss := caller.Stats(), server.Stats(); cs.AcksSent != 2 || ss.AcksSent != 2 {
			t.Fatalf("AcksSent caller %d, server %d; want 2 each", cs.AcksSent, ss.AcksSent)
		}
	})

	// Each direction loses one fragment of its first window. The receiver
	// stores the fragments before the gap and drops the ones after it as
	// bad frames; the window's flagged last fragment, past the gap, makes it
	// re-ack the last fragment stored, and the sender resends from the gap
	// at once, in a window that runs on into the second. So the fragments
	// before the gap go out once, those from the gap to the first window's
	// end twice, and no timer fires on either side.
	t.Run("recovery", func(t *testing.T) {
		ex := transport.NewExchange()
		cfg := fastCfg()
		cfg.RetransInterval = 200 * time.Millisecond // far above an ack's round trip, even under -race
		callerTap := &tapTransport{Transport: &dropTransport{ex.Port("caller"), dropFirst(wire.TypeCall, 5)}}
		serverTap := &tapTransport{Transport: &dropTransport{ex.Port("server"), dropFirst(wire.TypeResult, 7)}}
		caller := NewConn(callerTap, cfg, nil)
		server := NewConn(serverTap, cfg, copyHandler)
		t.Cleanup(func() {
			caller.Close()
			server.Close()
		})
		args := windowedArgs()
		res, err := caller.Call(context.Background(), sa, caller.NewActivity(), 1, 1, 1, args, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res, args) {
			t.Fatal("round trip mangled")
		}
		for _, dir := range []struct {
			what string
			tap  *tapTransport
			typ  wire.PacketType
			gap  int
		}{{"call", callerTap, wire.TypeCall, 5}, {"result", serverTap, wire.TypeResult, 7}} {
			for i, n := range dir.tap.sends(dir.typ, frags) {
				want := 1
				if i >= dir.gap && i < fragWindow {
					want = 2
				}
				if n != want {
					t.Errorf("%s fragment %d sent %d times, want %d", dir.what, i, n, want)
				}
			}
		}
		// The server never retransmits on its own, and the re-acks leave
		// the caller's timer nothing to do.
		cs, ss := caller.Stats(), server.Stats()
		if cs.Retransmits != 0 || ss.Retransmits != 0 {
			t.Errorf("Retransmits caller %d, server %d; want 0", cs.Retransmits, ss.Retransmits)
		}
		if ss.BadFrames != 10 || ss.DupFrags != 0 || cs.BadFrames != 8 || cs.DupFrags != 0 {
			t.Errorf("server BadFrames %d DupFrags %d, caller BadFrames %d DupFrags %d; want 10, 0, 8 and 0",
				ss.BadFrames, ss.DupFrags, cs.BadFrames, cs.DupFrags)
		}
	})

	// One activity's result stream stalls: the caller loses every ack it
	// sends for it. With one server worker, a call on another activity must
	// still be served at once, because the worker went back to the queue
	// once the stream's first window was out. A stream whose sender waited
	// for its acks would hold the worker until it gave up, ~5.5 s here.
	t.Run("stall", func(t *testing.T) {
		ex := transport.NewExchange()
		cfg := Config{RetransInterval: 100 * time.Millisecond, MaxRetries: 8, Workers: 1}
		stalled := make(chan struct{}, 1)
		callerPort := &dropTransport{ex.Port("caller"), func(h wire.RPCHeader) bool {
			if h.Type == wire.TypeAck && h.Flags&flagAckResult != 0 && h.Seq == 1 {
				select {
				case stalled <- struct{}{}:
				default:
				}
				return true
			}
			return false
		}}
		caller := NewConn(callerPort, cfg, nil)
		server := NewConn(ex.Port("server"), cfg, func(_ transport.Addr, _ wire.TraceCtx, _ uint32, proc uint16, args []byte) ([]byte, error) {
			if proc == 1 {
				return windowedArgs(), nil
			}
			return args, nil
		})
		t.Cleanup(func() {
			caller.Close()
			server.Close()
		})
		ctx, cancel := context.WithCancel(context.Background())
		p, err := caller.goCall(ctx, sa, caller.NewActivity(), 1, 1, 1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-stalled:
		case <-time.After(5 * time.Second):
			t.Fatal("the stalled result never reached its first window ack")
		}
		start := time.Now()
		res, err := caller.Call(context.Background(), sa, caller.NewActivity(), 1, 1, 2, []byte("next"), nil)
		if err != nil || string(res) != "next" {
			t.Fatalf("second activity: %q, %v", res, err)
		}
		if d := time.Since(start); d > 50*time.Millisecond {
			t.Errorf("second activity's call took %v behind a stalled result stream", d)
		}
		cancel()
		if _, err := p.Await(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("stalled call: err = %v, want context.Canceled", err)
		}
	})

	// Seq 1's result stream stalls (the caller loses every ack it sends
	// for it) and the caller gives up mid-result, then calls seq 2 on the
	// same activity at once, so seq 2's result streams while seq 1's still
	// waits out its window. Both streams must end and hand their workers
	// back: a burst of Workers calls that each hold a worker until all of
	// them run completes only if none is stranded.
	t.Run("overlap", func(t *testing.T) {
		ex := transport.NewExchange()
		cfg := Config{RetransInterval: 100 * time.Millisecond, MaxRetries: 8, Workers: 4}
		stalled := make(chan struct{}, 1)
		callerPort := &dropTransport{ex.Port("caller"), func(h wire.RPCHeader) bool {
			if h.Type == wire.TypeAck && h.Flags&flagAckResult != 0 && h.Seq == 1 {
				select {
				case stalled <- struct{}{}:
				default:
				}
				return true
			}
			return false
		}}
		caller := NewConn(callerPort, cfg, nil)
		var entered atomic.Int32
		all := make(chan struct{})
		server := NewConn(ex.Port("server"), cfg, func(_ transport.Addr, _ wire.TraceCtx, _ uint32, proc uint16, args []byte) ([]byte, error) {
			if proc == 1 {
				return windowedArgs(), nil
			}
			if entered.Add(1) == int32(cfg.Workers) {
				close(all)
			}
			select {
			case <-all:
				return args, nil
			case <-time.After(5 * time.Second):
				return nil, errors.New("burst never filled every worker")
			}
		})
		t.Cleanup(func() {
			caller.Close()
			server.Close()
		})
		act := caller.NewActivity()
		ctx, cancel := context.WithCancel(context.Background())
		p, err := caller.goCall(ctx, sa, act, 1, 1, 1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-stalled:
		case <-time.After(5 * time.Second):
			t.Fatal("seq 1's result never reached its first window ack")
		}
		cancel()
		if _, err := p.Await(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("seq 1: err = %v, want context.Canceled", err)
		}
		res, err := caller.Call(context.Background(), sa, act, 2, 1, 1, nil, nil)
		if err != nil {
			t.Fatalf("seq 2: %v", err)
		}
		if !bytes.Equal(res, windowedArgs()) {
			t.Fatal("seq 2's result mangled")
		}
		errs := make(chan error, cfg.Workers)
		for i := 0; i < cfg.Workers; i++ {
			go func(i int) {
				want := []byte(fmt.Sprint(i))
				res, err := caller.Call(context.Background(), sa, caller.NewActivity(), 1, 1, 2, want, nil)
				if err == nil && !bytes.Equal(res, want) {
					err = fmt.Errorf("burst call %d got %q", i, res)
				}
				errs <- err
			}(i)
		}
		for i := 0; i < cfg.Workers; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("burst: %v", err)
			}
		}
	})
}

// TestFragmentedCallLeavesRTT checks that only exchanges of one packet each
// way feed the per-peer round-trip estimator: a 256-fragment call, whose
// time includes its windows, a slow handler and its result stream, leaves
// the peer's adaptive interval exactly where the small calls put it.
func TestFragmentedCallLeavesRTT(t *testing.T) {
	ex := transport.NewExchange()
	// The handler spends 1 ms of the manual clock on a small call and 10 ms
	// on the large one, short of the 20 ms retransmission interval.
	var m *clock.Manual
	m, caller, _, sa := manualPair(t, ex, fastCfg(),
		func(_ transport.Addr, _ wire.TraceCtx, _ uint32, _ uint16, args []byte) ([]byte, error) {
			if len(args) > wire.MaxSinglePacketPayload {
				m.Advance(10 * time.Millisecond)
			} else {
				m.Advance(time.Millisecond)
			}
			return append([]byte(nil), args...), nil
		})
	act := caller.NewActivity()
	seq := uint32(0)
	call := func(args []byte) {
		t.Helper()
		seq++
		res, err := caller.Call(context.Background(), sa, act, seq, 1, 1, args, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res, args) {
			t.Fatalf("%d-byte call: round trip mangled", len(args))
		}
	}
	for i := 0; i < 8; i++ {
		call([]byte("small"))
	}
	if _, ok := caller.RTT(sa); !ok {
		t.Fatal("small calls left no round-trip estimate")
	}
	// The raw estimate, unclamped, so that any sample would show.
	interval := func() time.Duration { return caller.lookupChannel(sa).rttInterval(0, time.Hour) }
	before := interval()
	call(make([]byte, maxFragments*wire.MaxSinglePacketPayload))
	if after := interval(); after != before {
		t.Fatalf("a 256-fragment call moved the peer's interval from %v to %v", before, after)
	}
}
