package simnet

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"fireflyrpc/internal/proto"
	"fireflyrpc/internal/transport"
	"fireflyrpc/internal/transport/transporttest"
	"fireflyrpc/internal/wire"
)

// TestConformance proves the simulator stack satisfies the same transport
// contract as the real transports — the whole point of the seam.
func TestConformance(t *testing.T) {
	transporttest.Run(t, "Simnet", func(t *testing.T) (transport.Transport, transport.Transport) {
		n := New(1)
		t.Cleanup(n.Close)
		return n.Endpoint("conf-a"), n.Endpoint("conf-b")
	})
}

// TestVirtualClockAdvances checks traffic actually crosses the modeled
// 10 Mbit/s wire: the kernel's virtual clock must move by the frames'
// transmission time.
func TestVirtualClockAdvances(t *testing.T) {
	n := New(1)
	defer n.Close()
	a := n.Endpoint("a")
	b := n.Endpoint("b")
	var got atomic.Int64
	b.SetReceiver(func(src transport.Addr, frame []byte) { got.Add(1) })
	frame := make([]byte, 1000)
	for i := 0; i < 10; i++ {
		if err := a.Send(b.LocalAddr(), frame); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for got.Load() < 10 {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d/10 frames", got.Load())
		}
		time.Sleep(time.Millisecond)
	}
	// 10 frames × 1014 bytes × 0.8 µs/byte ≈ 8.1 ms of wire time.
	if now := int64(n.Now()); now < 8*time.Millisecond.Nanoseconds() {
		t.Fatalf("virtual clock at %d ns, want ≥ 8ms of modeled transmission", now)
	}
	if st := n.SegmentStats(); st.Frames != 10 {
		t.Fatalf("segment saw %d frames, want 10", st.Frames)
	}
}

// TestProtoOverSimnet runs the real protocol engine — session hello and
// all — over the simulated Ethernet.
func TestProtoOverSimnet(t *testing.T) {
	n := New(7)
	defer n.Close()
	cfg := proto.Config{RetransInterval: 20 * time.Millisecond, MaxRetries: 8, Workers: 4}
	caller := proto.NewConn(n.Endpoint("caller"), cfg, nil)
	defer caller.Close()
	server := proto.NewConn(n.Endpoint("server"), cfg, func(src transport.Addr, _ wire.TraceCtx, iface uint32, proc uint16, args []byte) ([]byte, error) {
		return append(append([]byte(nil), args...), 0xEE), nil
	})
	defer server.Close()

	for i := 0; i < 5; i++ {
		args := []byte(fmt.Sprintf("sim-call-%d", i))
		res, err := caller.Call(context.Background(), AddrOf("server"), 1, uint32(i+1), 0, 1, args, nil)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		want := append(append([]byte(nil), args...), 0xEE)
		if !bytes.Equal(res, want) {
			t.Fatalf("call %d result = %q, want %q", i, res, want)
		}
	}
	if st := caller.Stats(); st.SessionsNegotiated != 1 {
		t.Fatalf("caller negotiated %d sessions over simnet, want 1", st.SessionsNegotiated)
	}
}

// TestProtoOverLossySimnet injects wire loss through the segment's fault
// hook; the protocol's retransmission engine must recover every call.
func TestProtoOverLossySimnet(t *testing.T) {
	n := New(42)
	defer n.Close()
	n.Segment().LossRate = 0.25
	cfg := proto.Config{RetransInterval: 5 * time.Millisecond, MaxRetries: 20, Workers: 4}
	caller := proto.NewConn(n.Endpoint("caller"), cfg, nil)
	defer caller.Close()
	server := proto.NewConn(n.Endpoint("server"), cfg, func(src transport.Addr, _ wire.TraceCtx, iface uint32, proc uint16, args []byte) ([]byte, error) {
		return args, nil
	})
	defer server.Close()

	for i := 0; i < 20; i++ {
		args := []byte{byte(i)}
		res, err := caller.Call(context.Background(), AddrOf("server"), 1, uint32(i+1), 0, 1, args, nil)
		if err != nil {
			t.Fatalf("call %d under 25%% loss: %v", i, err)
		}
		if !bytes.Equal(res, args) {
			t.Fatalf("call %d result corrupted", i)
		}
	}
	if st := caller.Stats(); st.Retransmits == 0 {
		t.Log("note: no retransmissions observed despite loss (unlucky seed?)")
	}
}
