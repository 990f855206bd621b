package proto

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"fireflyrpc/internal/transport"
	"fireflyrpc/internal/wire"
)

// copyHandler returns an exact copy of its arguments, so a result crosses
// the same fragment boundaries its call did.
func copyHandler(_ transport.Addr, _ wire.TraceCtx, _ uint32, _ uint16, args []byte) ([]byte, error) {
	return append([]byte(nil), args...), nil
}

// tapTransport records the header and payload length of every frame a Conn
// sends, so a test can pin the wire layout of a fragmented message.
type tapTransport struct {
	transport.Transport
	mu     sync.Mutex
	frames []tappedFrame
}

type tappedFrame struct {
	hdr     wire.RPCHeader
	payload int
}

func (t *tapTransport) Send(dst transport.Addr, frame []byte) error {
	if hdr, payload, err := wire.UnmarshalRPC(frame); err == nil {
		t.mu.Lock()
		t.frames = append(t.frames, tappedFrame{hdr, len(payload)})
		t.mu.Unlock()
	}
	return t.Transport.Send(dst, frame)
}

// take returns the recorded frames of one type, retransmissions folded
// out, and forgets every frame.
func (t *tapTransport) take(typ wire.PacketType) []tappedFrame {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []tappedFrame
	for _, f := range t.frames {
		if f.hdr.Type != typ {
			continue
		}
		if n := len(out); n > 0 && out[n-1].hdr.FragIndex == f.hdr.FragIndex {
			// A retransmission of the frame just sent (a final one also
			// asks for an ack).
			continue
		}
		out = append(out, f)
	}
	t.frames = nil
	return out
}

// checkLayout asserts that frames carry an n-byte message the way the
// protocol always has: in index order, every frame full (fragment 0 holding
// the first bytes of the message after any trace prefix), the last one
// holding the rest, and only the last flagged FlagLastFrag.
func checkLayout(t *testing.T, what string, frames []tappedFrame, n, first, maxP int) {
	t.Helper()
	want := fragCount(n, first, maxP)
	if len(frames) != want {
		t.Fatalf("%s: %d frames, want %d", what, len(frames), want)
	}
	left := n
	for i, f := range frames {
		size := maxP
		if i == 0 {
			size = first
		}
		if i == want-1 {
			size = left
		}
		left -= size
		if i == 0 {
			size += maxP - first // the trace prefix rides ahead of the payload
		}
		last := f.hdr.Flags&wire.FlagLastFrag != 0
		if int(f.hdr.FragIndex) != i || int(f.hdr.FragCount) != want || f.payload != size || last != (i == want-1) {
			t.Fatalf("%s: frame %d is index %d/%d, %d bytes, last=%v; want %d/%d, %d bytes",
				what, i, f.hdr.FragIndex, f.hdr.FragCount, f.payload, last, i, want, size)
		}
	}
}

// TestFragmentBoundaryRoundTrip sends arguments, and gets results back, of
// every size around a fragment boundary — maxP−1, maxP, maxP+1 and k·maxP —
// with and without the inline trace prefix, which shortens fragment 0 to
// maxP−TraceCtxLen. Both directions must arrive byte-exact and leave the
// wire in the same fragments as always. 256·maxP is the largest message; one
// byte more is ErrTooLarge.
func TestFragmentBoundaryRoundTrip(t *testing.T) {
	const maxP = wire.MaxSinglePacketPayload
	for _, traced := range []bool{false, true} {
		t.Run(fmt.Sprintf("traced=%v", traced), func(t *testing.T) {
			ex := transport.NewExchange()
			callerTap := &tapTransport{Transport: ex.Port("caller")}
			serverTap := &tapTransport{Transport: ex.Port("server")}
			caller := NewConn(callerTap, fastCfg(), nil)
			server := NewConn(serverTap, fastCfg(), copyHandler)
			t.Cleanup(func() {
				caller.Close()
				server.Close()
			})
			sa := transport.AddrOf("server")
			act := caller.NewActivity()
			seq := uint32(1)
			if _, err := caller.Call(context.Background(), sa, act, seq, 1, 1, nil, nil); err != nil {
				t.Fatal(err)
			}
			waitSessionState(t, caller, sa, sessNegotiated)
			first := maxP
			if traced {
				caller.SetTracing(1, 64)
				first -= wire.TraceCtxLen
			}
			sizes := []int{
				first - 1, first, first + 1,
				first + maxP - 1, first + maxP, first + maxP + 1,
				2 * maxP, 3 * maxP, first + 3*maxP, maxFragments*maxP - (maxP - first),
			}
			for _, n := range sizes {
				seq++
				args := make([]byte, n)
				for i := range args {
					args[i] = byte(i*7 + i>>8)
				}
				callerTap.take(wire.TypeCall)
				serverTap.take(wire.TypeResult)
				res, err := caller.Call(context.Background(), sa, act, seq, 1, 1, args, nil)
				if err != nil {
					t.Fatalf("%d bytes: %v", n, err)
				}
				if !bytes.Equal(res, args) {
					t.Fatalf("%d bytes: round trip mangled (%d bytes back)", n, len(res))
				}
				checkLayout(t, fmt.Sprintf("%d-byte call", n), callerTap.take(wire.TypeCall), n, first, maxP)
				checkLayout(t, fmt.Sprintf("%d-byte result", n), serverTap.take(wire.TypeResult), n, maxP, maxP)
			}
			seq++
			_, err := caller.Call(context.Background(), sa, act, seq, 1, 1,
				make([]byte, maxFragments*maxP-(maxP-first)+1), nil)
			if err != ErrTooLarge {
				t.Fatalf("one byte over the limit: err = %v, want ErrTooLarge", err)
			}
		})
	}
}

// rawPort is a protocol-less exchange endpoint: it records every frame it
// receives so a test can play one side of the protocol by hand.
type rawPort struct {
	frames chan []byte // buffered past any one test's traffic, so delivery never blocks
}

func newRawPort(t *testing.T, ex *transport.Exchange, name string) *rawPort {
	r := &rawPort{frames: make(chan []byte, 1024)}
	p := ex.Port(name)
	p.SetReceiver(func(_ transport.Addr, frame []byte) {
		r.frames <- append([]byte(nil), frame...)
	})
	t.Cleanup(func() { p.Close() })
	return r
}

// next waits for the next frame of type typ, skipping others (hellos).
func (r *rawPort) next(t *testing.T, typ wire.PacketType) wire.RPCHeader {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for {
		select {
		case f := <-r.frames:
			hdr, _, err := wire.UnmarshalRPC(f)
			if err != nil {
				t.Fatal(err)
			}
			if hdr.Type == typ {
				return hdr
			}
		case <-timeout:
			t.Fatalf("no frame of type %d arrived", typ)
		}
	}
}

// reassemblyScript is the fragment sequence both directions are fed: four
// fragments, with a duplicate of fragment 0, fragment 2 before fragment 1,
// and fragment 1 under a disagreeing FragCount before the real one.
var reassemblyScript = []struct {
	idx, count uint16
	ack        bool // the receiver must ack this frame
}{
	{0, 4, true},
	{0, 4, true},  // duplicate: re-acked and counted in DupFrags
	{2, 4, false}, // ahead of fragment 1: BadFrames, dropped unacked
	{1, 5, false}, // mismatched FragCount: BadFrames, dropped unacked
	{1, 4, true},
	{2, 4, true},
	{3, 4, false}, // last: acknowledged implicitly
}

var reassemblyPieces = [][]byte{[]byte("alpha-"), []byte("beta-"), []byte("gamma-"), []byte("delta")}

// playScript sends the script's fragments, each a copy of hdr, from src to
// dst and checks, frame by frame, that exactly the expected acks come back.
func playScript(t *testing.T, ex *transport.Exchange, src, dst string, raw *rawPort, hdr wire.RPCHeader, stats func() Stats) {
	t.Helper()
	for i, step := range reassemblyScript {
		h := hdr
		h.FragIndex, h.FragCount = step.idx, step.count
		if step.idx == 3 {
			h.Flags |= wire.FlagLastFrag
		} else {
			h.Flags |= wire.FlagPleaseAck
		}
		before := stats()
		if err := ex.SendFrom(src, dst, buildFrame(h, reassemblyPieces[step.idx])); err != nil {
			t.Fatal(err)
		}
		if step.ack {
			if a := raw.next(t, wire.TypeAck); a.FragIndex != step.idx || a.Seq != hdr.Seq {
				t.Fatalf("step %d: ack of %d/seq %d, want %d/seq %d", i, a.FragIndex, a.Seq, step.idx, hdr.Seq)
			}
			continue
		}
		if step.idx == 3 {
			continue
		}
		waitCondition(t, 2*time.Second, func() error {
			if stats().BadFrames == before.BadFrames {
				return fmt.Errorf("step %d: frame not counted as bad", i)
			}
			return nil
		})
	}
}

// TestReassemblyInOrder feeds a four-fragment call to a server, and a
// four-fragment result to a caller, by hand: a duplicate of fragment 0 is
// re-acked and counted, fragment 2 ahead of fragment 1 and a fragment under
// a disagreeing FragCount are dropped as bad frames without an ack, and the
// message still completes — exactly once, with exactly the concatenated
// bytes — once the right fragments arrive.
func TestReassemblyInOrder(t *testing.T) {
	want := bytes.Join(reassemblyPieces, nil)

	t.Run("call", func(t *testing.T) {
		ex := transport.NewExchange()
		raw := newRawPort(t, ex, "caller")
		got := make(chan []byte, 4)
		server := NewConn(ex.Port("server"), fastCfg(), func(_ transport.Addr, _ wire.TraceCtx, _ uint32, _ uint16, args []byte) ([]byte, error) {
			got <- append([]byte(nil), args...)
			return []byte("done"), nil
		})
		t.Cleanup(func() { server.Close() })
		hdr := wire.RPCHeader{Type: wire.TypeCall, Activity: 99, Seq: 3, Interface: 1, Proc: 1}
		playScript(t, ex, "caller", "server", raw, hdr, server.Stats)
		if res := raw.next(t, wire.TypeResult); res.Seq != hdr.Seq {
			t.Fatalf("result for seq %d, want %d", res.Seq, hdr.Seq)
		}
		if args := <-got; !bytes.Equal(args, want) {
			t.Fatalf("handler saw %q, want %q", args, want)
		}
		st := server.Stats()
		if len(got) != 0 || st.CallsServed != 1 {
			t.Fatalf("call executed %d times, want once", st.CallsServed)
		}
		if st.DupFrags != 1 || st.BadFrames != 2 {
			t.Fatalf("DupFrags %d, BadFrames %d; want 1 and 2", st.DupFrags, st.BadFrames)
		}
	})

	// A FragCount is a claim, not a promise: the receiver's buffer grows
	// with the bytes that arrive, so one frame claiming the most fragments
	// a message may have reserves no more than that frame's own payload.
	t.Run("claim", func(t *testing.T) {
		ex := transport.NewExchange()
		raw := newRawPort(t, ex, "caller")
		server := NewConn(ex.Port("server"), fastCfg(), copyHandler)
		t.Cleanup(func() { server.Close() })
		payload := make([]byte, wire.MaxSinglePacketPayload)
		h := wire.RPCHeader{Type: wire.TypeCall, Activity: 99, Seq: 1, FragCount: maxFragments, Flags: wire.FlagPleaseAck}
		if err := ex.SendFrom("caller", "server", buildFrame(h, payload)); err != nil {
			t.Fatal(err)
		}
		raw.next(t, wire.TypeAck)
		ch := server.lookupChannel(transport.AddrOf("caller"))
		ch.actsMu.Lock()
		held := cap(ch.acts[h.Activity].argBuf)
		ch.actsMu.Unlock()
		if held > 2*len(payload) {
			t.Fatalf("one %d-byte fragment reserved %d bytes", len(payload), held)
		}
	})

	t.Run("result", func(t *testing.T) {
		ex := transport.NewExchange()
		raw := newRawPort(t, ex, "server")
		cfg := fastCfg()
		cfg.RetransInterval = time.Second // keep call retransmissions out of the way
		caller := NewConn(ex.Port("caller"), cfg, nil)
		t.Cleanup(func() { caller.Close() })
		act := caller.NewActivity()
		p, err := caller.goCall(context.Background(), transport.AddrOf("server"), act, 3, 1, 1, []byte("go"), nil)
		if err != nil {
			t.Fatal(err)
		}
		raw.next(t, wire.TypeCall)
		hdr := wire.RPCHeader{Type: wire.TypeResult, Activity: act, Seq: 3, Interface: 1, Proc: 1}
		playScript(t, ex, "server", "caller", raw, hdr, caller.Stats)
		res, err := p.Await(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res, want) {
			t.Fatalf("caller got %q, want %q", res, want)
		}
		st := caller.Stats()
		if st.CallsCompleted != 1 || st.DupFrags != 1 || st.BadFrames != 2 {
			t.Fatalf("CallsCompleted %d, DupFrags %d, BadFrames %d; want 1, 1 and 2",
				st.CallsCompleted, st.DupFrags, st.BadFrames)
		}
	})
}
