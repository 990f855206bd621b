// Package transporttest is the conformance suite for the one transport
// contract: every implementation of transport.Transport in the repo — the
// shared-memory exchange, the UDP socket, the multiplexed TCP streams, the
// authentication and fault-injection wrappers, and the simulator stack —
// must pass the same behavioral checks, because the protocol layer
// is written against the contract, not any one transport.
//
// The suite assumes only what the contract promises: frames may be dropped
// (it retries with deadlines), but a delivered frame must be intact, must
// be attributed to the sender's LocalAddr, and must be usable from inside
// the receive callback (the protocol sends acks from there). It never
// assumes reliability or timing.
package transporttest

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"fireflyrpc/internal/transport"
)

// Factory builds a fresh pair of connected endpoints for one subtest:
// a.Send(b.LocalAddr(), ...) must be routable and vice versa. Cleanup is
// the caller's (use t.Cleanup inside the factory).
type Factory func(t *testing.T) (a, b transport.Transport)

// Run exercises the full conformance suite against the factory's
// transports under the given name.
func Run(t *testing.T, name string, mk Factory) {
	t.Run(name+"/Delivery", func(t *testing.T) { testDelivery(t, mk) })
	t.Run(name+"/EchoFromCallback", func(t *testing.T) { testEcho(t, mk) })
	t.Run(name+"/NoRetain", func(t *testing.T) { testNoRetain(t, mk) })
	t.Run(name+"/MaxFrame", func(t *testing.T) { testMaxFrame(t, mk) })
	t.Run(name+"/Close", func(t *testing.T) { testClose(t, mk) })
	t.Run(name+"/Stats", func(t *testing.T) { testStats(t, mk) })
	t.Run(name+"/Batch", func(t *testing.T) { testBatch(t, mk) })
	t.Run(name+"/BatchRuns", func(t *testing.T) { testBatchRuns(t, mk) })
	t.Run(name+"/BatchOversize", func(t *testing.T) { testBatchOversize(t, mk) })
}

// collector is a copying receiver: it honors the no-retain contract by
// copying every frame during the callback.
type collector struct {
	mu     sync.Mutex
	frames [][]byte
	srcs   []string
}

func (c *collector) receiver() transport.Receiver {
	return func(src transport.Addr, frame []byte) {
		c.mu.Lock()
		c.frames = append(c.frames, append([]byte(nil), frame...))
		c.srcs = append(c.srcs, src.String())
		c.mu.Unlock()
	}
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

func (c *collector) snapshot() ([][]byte, []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.frames...), append([]string(nil), c.srcs...)
}

// sendUntil retries frame from src to dst until the collector has seen at
// least want frames — the loss-tolerant way to establish delivery without
// assuming the transport is reliable (TCP drops while its dialer works,
// UDP drops under pressure).
func sendUntil(t *testing.T, src transport.Transport, dst transport.Addr, frame []byte, c *collector, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.count() < want {
		if err := src.Send(dst, frame); err != nil {
			t.Fatalf("Send: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout: %d/%d frames delivered", c.count(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func testDelivery(t *testing.T, mk Factory) {
	a, b := mk(t)
	var onB collector
	b.SetReceiver(onB.receiver())

	msg := []byte("conformance: basic delivery")
	sendUntil(t, a, b.LocalAddr(), msg, &onB, 1)
	frames, srcs := onB.snapshot()
	if !bytes.Equal(frames[0], msg) {
		t.Fatalf("delivered frame = %q, want %q", frames[0], msg)
	}
	// The frame must be attributed to the sender's canonical address —
	// the protocol keys its per-peer channels on src.String(), so an
	// ephemeral-port or otherwise aliased source breaks correlation.
	if srcs[0] != a.LocalAddr().String() {
		t.Fatalf("src = %q, want sender's LocalAddr %q", srcs[0], a.LocalAddr().String())
	}

	var onA collector
	a.SetReceiver(onA.receiver())
	reply := []byte("conformance: reverse delivery")
	sendUntil(t, b, a.LocalAddr(), reply, &onA, 1)
	frames, srcs = onA.snapshot()
	if !bytes.Equal(frames[0], reply) {
		t.Fatalf("reverse frame = %q, want %q", frames[0], reply)
	}
	if srcs[0] != b.LocalAddr().String() {
		t.Fatalf("reverse src = %q, want %q", srcs[0], b.LocalAddr().String())
	}
}

// testEcho sends the reply from inside the receive callback, which is how
// the protocol layer emits acks and retransmitted results. A transport
// that deadlocks or drops on reentrant Send fails the whole stack.
func testEcho(t *testing.T, mk Factory) {
	a, b := mk(t)
	var onA collector
	a.SetReceiver(onA.receiver())
	b.SetReceiver(func(src transport.Addr, frame []byte) {
		echoed := append([]byte("echo:"), frame...)
		_ = b.Send(src, echoed)
	})

	deadline := time.Now().Add(10 * time.Second)
	for onA.count() == 0 {
		if err := a.Send(b.LocalAddr(), []byte("ping")); err != nil {
			t.Fatalf("Send: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("echo never arrived: transport cannot send from its receive callback")
		}
		time.Sleep(2 * time.Millisecond)
	}
	frames, srcs := onA.snapshot()
	if string(frames[0]) != "echo:ping" {
		t.Fatalf("echo = %q, want %q", frames[0], "echo:ping")
	}
	if srcs[0] != b.LocalAddr().String() {
		t.Fatalf("echo src = %q, want %q", srcs[0], b.LocalAddr().String())
	}
}

// testNoRetain drives a burst of distinct frames through one receive path
// and checks every copy taken during the callback is an intact sent frame
// — catching transports whose buffer recycling clobbers a frame before or
// during delivery.
func testNoRetain(t *testing.T, mk Factory) {
	a, b := mk(t)
	var onB collector
	b.SetReceiver(onB.receiver())

	const n = 64
	sent := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		payload := fmt.Sprintf("burst-frame-%03d-%s", i, "payload-padding-to-make-length-vary"[:i%30])
		sent[payload] = true
		if err := a.Send(b.LocalAddr(), []byte(payload)); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	// Lossy transports may not deliver all 64; require at least one and
	// give stragglers a moment, then validate integrity of what arrived.
	sendUntil(t, a, b.LocalAddr(), []byte("burst-frame-fin"), &onB, 1)
	sent["burst-frame-fin"] = true
	time.Sleep(50 * time.Millisecond)
	frames, _ := onB.snapshot()
	for i, f := range frames {
		if !sent[string(f)] {
			t.Fatalf("delivered frame %d = %q was never sent: reused buffer leaked across deliveries", i, f)
		}
	}
}

func testMaxFrame(t *testing.T, mk Factory) {
	a, b := mk(t)
	var onB collector
	b.SetReceiver(onB.receiver())

	max := a.MaxFrame()
	if max <= 0 {
		t.Fatalf("MaxFrame = %d", max)
	}
	over := make([]byte, max+1)
	if err := a.Send(b.LocalAddr(), over); !errors.Is(err, transport.ErrFrameTooLarge) {
		t.Fatalf("oversize Send err = %v, want ErrFrameTooLarge", err)
	}
	full := make([]byte, max)
	for i := range full {
		full[i] = byte(i)
	}
	sendUntil(t, a, b.LocalAddr(), full, &onB, 1)
	frames, _ := onB.snapshot()
	if !bytes.Equal(frames[0], full) {
		t.Fatalf("max-size frame corrupted in transit (len %d, want %d)", len(frames[0]), len(full))
	}
}

func testClose(t *testing.T, mk Factory) {
	a, b := mk(t)
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("Close must be idempotent, second call: %v", err)
	}
	if err := a.Send(b.LocalAddr(), []byte("after close")); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Send after Close err = %v, want ErrClosed", err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("peer Close: %v", err)
	}
}

func testStats(t *testing.T, mk Factory) {
	a, b := mk(t)
	sr, ok := a.(transport.StatsReporter)
	if !ok {
		t.Skip("transport does not report stats")
	}
	if _, live := sr.TransportStats(); !live {
		t.Skip("stats reporting not live on this transport")
	}
	var onB collector
	b.SetReceiver(onB.receiver())
	sendUntil(t, a, b.LocalAddr(), []byte("counted"), &onB, 1)

	sa, _ := sr.TransportStats()
	if sa.SendFrames == 0 || sa.SendBatches == 0 {
		t.Fatalf("sender counters did not move after delivery: %+v", sa)
	}
	if brs, ok := b.(transport.StatsReporter); ok {
		if sb, live := brs.TransportStats(); live && (sb.RecvFrames == 0 || sb.RecvBatches == 0) {
			t.Fatalf("receiver counters did not move after delivery: %+v", sb)
		}
	}
}

// batchSender returns a's SendBatch, skipping the test when it has none.
// Every BatchSender is checked, whether or not BatchEnabled asks for
// queued sends: the protocol hands fragment windows to SendBatch either way.
func batchSender(t *testing.T, a transport.Transport) transport.BatchSender {
	t.Helper()
	bs, ok := a.(transport.BatchSender)
	if !ok {
		t.Skip("transport has no SendBatch")
	}
	return bs
}

// testBatch checks the optional batched datapath: full acceptance and
// per-destination ordering (delivered frames must form an in-order
// subsequence of the submitted batch — drops allowed, reordering not).
func testBatch(t *testing.T, mk Factory) {
	a, b := mk(t)
	bs := batchSender(t, a)
	var onB collector
	b.SetReceiver(onB.receiver())

	// Establish the path first so connection-oriented transports are warm.
	sendUntil(t, a, b.LocalAddr(), []byte("batch-warm"), &onB, 1)

	const n = 48
	frames := make([]transport.Frame, n)
	for i := range frames {
		frames[i] = transport.Frame{Dst: b.LocalAddr(), Data: []byte(fmt.Sprintf("batch-%03d", i))}
	}
	sent, err := bs.SendBatch(frames)
	if err != nil {
		t.Fatalf("SendBatch: %v", err)
	}
	if sent != n {
		t.Fatalf("SendBatch accepted %d/%d on a warm path", sent, n)
	}

	// Wait for at least one batch frame, then a settling window; verify
	// order of whatever arrived.
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, _ := onB.snapshot()
		if len(batchIndices(t, got)) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no batch frames delivered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	got, _ := onB.snapshot()
	batch := batchIndices(t, got)
	for i := 1; i < len(batch); i++ {
		if batch[i] <= batch[i-1] {
			t.Fatalf("per-destination order violated: frame %d delivered after frame %d", batch[i], batch[i-1])
		}
	}
}

func batchIndices(t *testing.T, frames [][]byte) []int {
	t.Helper()
	var idx []int
	for _, f := range frames {
		var i int
		if n, _ := fmt.Sscanf(string(f), "batch-%03d", &i); n == 1 {
			idx = append(idx, i)
		}
	}
	return idx
}

// batchFrame is frame i of a batch test: "batch-NNN" padded to size bytes
// with a pattern that depends on i, so a frame cut at the wrong boundary
// or joined to its neighbour cannot pass for an intact one.
func batchFrame(i, size int) []byte {
	f := make([]byte, size)
	copy(f, fmt.Sprintf("batch-%03d", i))
	for j := 9; j < size; j++ {
		f[j] = byte(i*31 + j)
	}
	return f
}

// settle waits until c holds at least one batch frame, then a little
// longer for stragglers, and returns the batch frames that arrived.
func settle(t *testing.T, c *collector) [][]byte {
	t.Helper()
	batch := func() [][]byte {
		all, _ := c.snapshot()
		var got [][]byte
		for _, f := range all {
			if bytes.HasPrefix(f, []byte("batch-")) {
				got = append(got, f)
			}
		}
		return got
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(batch()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no batch frames delivered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	return batch()
}

// checkSubsequence fails t unless got is an in-order subsequence of the
// frames of want whose indices are listed, each byte-exact.
func checkSubsequence(t *testing.T, who string, got [][]byte, want []transport.Frame, idx []int) {
	t.Helper()
	k := 0
	for _, f := range got {
		for k < len(idx) && !bytes.Equal(f, want[idx[k]].Data) {
			k++
		}
		if k == len(idx) {
			t.Fatalf("%s: frame %.9q (%d bytes) is not an intact, in-order frame of the batch", who, f, len(f))
		}
		k++
	}
}

// testBatchRuns sends a batch whose runs a segmenting transport must cut
// correctly: full-size frames ending in a shorter one, then a run to b
// broken by a frame to a second destination (a itself). Each destination
// must receive an in-order, byte-exact subsequence of its frames.
func testBatchRuns(t *testing.T, mk Factory) {
	a, b := mk(t)
	bs := batchSender(t, a)
	var onA, onB collector
	a.SetReceiver(onA.receiver())
	b.SetReceiver(onB.receiver())
	sendUntil(t, a, b.LocalAddr(), []byte("runs-warm"), &onB, 1)
	sendUntil(t, a, a.LocalAddr(), []byte("runs-warm"), &onA, 1)

	max := a.MaxFrame()
	var frames []transport.Frame
	var toA, toB []int
	add := func(dst transport.Transport, size int) {
		i := len(frames)
		frames = append(frames, transport.Frame{Dst: dst.LocalAddr(), Data: batchFrame(i, size)})
		if dst == a {
			toA = append(toA, i)
		} else {
			toB = append(toB, i)
		}
	}
	for i := 0; i < 5; i++ {
		add(b, max)
	}
	add(b, max/3) // a shorter frame ends the first run
	for i := 0; i < 3; i++ {
		add(b, max)
	}
	add(a, max) // a second destination breaks the next run
	for i := 0; i < 3; i++ {
		add(b, max)
	}
	sent, err := bs.SendBatch(frames)
	if err != nil || sent != len(frames) {
		t.Fatalf("SendBatch = %d, %v; want %d, nil", sent, err, len(frames))
	}
	checkSubsequence(t, "first destination", settle(t, &onB), frames, toB)
	checkSubsequence(t, "second destination", settle(t, &onA), frames, toA)
}

// testBatchOversize puts a frame over MaxFrame mid-batch: SendBatch accepts
// the frames before it, returns ErrFrameTooLarge, and sends nothing after.
func testBatchOversize(t *testing.T, mk Factory) {
	a, b := mk(t)
	bs := batchSender(t, a)
	var onB collector
	b.SetReceiver(onB.receiver())
	sendUntil(t, a, b.LocalAddr(), []byte("oversize-warm"), &onB, 1)

	max := a.MaxFrame()
	frames := []transport.Frame{
		{Dst: b.LocalAddr(), Data: batchFrame(0, max)},
		{Dst: b.LocalAddr(), Data: batchFrame(1, max)},
		{Dst: b.LocalAddr(), Data: batchFrame(2, max+1)},
		{Dst: b.LocalAddr(), Data: batchFrame(3, max)},
	}
	sent, err := bs.SendBatch(frames)
	if !errors.Is(err, transport.ErrFrameTooLarge) || sent != 2 {
		t.Fatalf("SendBatch = %d, %v; want 2, ErrFrameTooLarge", sent, err)
	}
	checkSubsequence(t, "receiver", settle(t, &onB), frames, []int{0, 1})
}
