package proto

import (
	"context"
	"fmt"
	"testing"

	"fireflyrpc/internal/transport"
)

// The batching send queue must engage exactly when the transport offers a
// live batched datapath.
func TestSendQueueEngagement(t *testing.T) {
	ex := transport.NewExchange()
	memConn := NewConn(ex.Port("a"), fastCfg(), nil)
	defer memConn.Close()
	if memConn.sq != nil {
		t.Fatal("send queue engaged over the per-frame exchange")
	}

	bt, err := transport.ListenUDPBatch("127.0.0.1:0", transport.UDPOptions{})
	if err != nil {
		t.Skip("no loopback:", err)
	}
	batchConn := NewConn(bt, fastCfg(), nil)
	defer batchConn.Close()
	if transport.SupportsBatch(bt) != (batchConn.sq != nil) {
		t.Fatalf("sq engaged=%v but SupportsBatch=%v", batchConn.sq != nil, transport.SupportsBatch(bt))
	}
}

// Full RPC exchange over the batched transport: a 64-outstanding async
// fan-out completes correctly, and every call's frames went through the
// send queue (transport send operations ≪ frames when batching is live).
func TestBatchedTransportAsyncFanout(t *testing.T) {
	st, err := transport.ListenUDPBatch("127.0.0.1:0", transport.UDPOptions{})
	if err != nil {
		t.Skip("no loopback:", err)
	}
	ct, err := transport.ListenUDPBatch("127.0.0.1:0", transport.UDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	server := NewConn(st, fastCfg(), echoHandler)
	caller := NewConn(ct, fastCfg(), nil)
	defer server.Close()
	defer caller.Close()

	const rounds, width = 8, 64
	ctx := context.Background()
	acts := make([]uint64, width)
	for i := range acts {
		acts[i] = caller.NewActivity()
	}
	for r := 0; r < rounds; r++ {
		pending := make([]*Pending, width)
		for i := 0; i < width; i++ {
			p, err := caller.goCall(ctx, st.LocalAddr(), acts[i], uint32(r+1), 1, 1,
				[]byte(fmt.Sprintf("m-%d-%d", r, i)), nil)
			if err != nil {
				t.Fatal(err)
			}
			pending[i] = p
		}
		for i, p := range pending {
			res, err := p.Await(ctx)
			if err != nil {
				t.Fatalf("round %d call %d: %v", r, i, err)
			}
			want := fmt.Sprintf("m-%d-%d\xee", r, i)
			if string(res) != want {
				t.Fatalf("round %d call %d: got %q want %q", r, i, res, want)
			}
		}
	}

	if transport.SupportsBatch(ct) {
		st, ok := caller.TransportStats()
		if !ok {
			t.Fatal("batched transport reports no stats")
		}
		if st.SendFrames < rounds*width {
			t.Fatalf("SendFrames = %d, want >= %d", st.SendFrames, rounds*width)
		}
		if st.SendBatches >= st.SendFrames {
			t.Fatalf("no amortization: %d batches for %d frames", st.SendBatches, st.SendFrames)
		}
		t.Logf("caller sent %d frames in %d ops (max batch %d, gso %d)",
			st.SendFrames, st.SendBatches, st.MaxSendBatch, st.GSOSends)
	}
}

// Fragmented calls (stop-and-wait acks) must work through the queue too.
func TestBatchedTransportFragmented(t *testing.T) {
	st, err := transport.ListenUDPBatch("127.0.0.1:0", transport.UDPOptions{})
	if err != nil {
		t.Skip("no loopback:", err)
	}
	ct, err := transport.ListenUDPBatch("127.0.0.1:0", transport.UDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	server := NewConn(st, fastCfg(), echoHandler)
	caller := NewConn(ct, fastCfg(), nil)
	defer server.Close()
	defer caller.Close()

	big := make([]byte, 6000)
	for i := range big {
		big[i] = byte(i)
	}
	res, err := caller.Call(context.Background(), st.LocalAddr(), caller.NewActivity(), 1, 1, 1, big, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 6001 {
		t.Fatalf("result len %d", len(res))
	}
}

// Close must tear the queue down without leaking pooled frames, even with
// traffic in flight.
func TestSendQueueCloseReleasesFrames(t *testing.T) {
	ct, err := transport.ListenUDPBatch("127.0.0.1:0", transport.UDPOptions{})
	if err != nil {
		t.Skip("no loopback:", err)
	}
	st, err := transport.ListenUDPBatch("127.0.0.1:0", transport.UDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	server := NewConn(st, fastCfg(), echoHandler)
	caller := NewConn(ct, fastCfg(), nil)
	ctx := context.Background()
	var pending []*Pending
	for i := 0; i < 32; i++ {
		p, err := caller.goCall(ctx, st.LocalAddr(), caller.NewActivity(), 1, 1, 1, []byte("x"), nil)
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, p)
	}
	caller.Close()
	for _, p := range pending {
		// Await collects each call (ErrClosed or a result that raced the
		// close) and recycles its retained frame.
		_, _ = p.Await(ctx)
	}
	server.Close()
	if n := caller.frames.InUse(); n != 0 {
		t.Fatalf("%d pooled frames leaked through the send queue", n)
	}
}
