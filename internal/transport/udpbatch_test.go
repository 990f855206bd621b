package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"
)

// collector gathers delivered frames (copied — the Receiver contract says
// the buffer is only valid during the call).
type collector struct {
	mu     sync.Mutex
	frames [][]byte
}

func (c *collector) receive(_ Addr, frame []byte) {
	c.mu.Lock()
	c.frames = append(c.frames, append([]byte(nil), frame...))
	c.mu.Unlock()
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

func (c *collector) snapshot() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.frames...)
}

func listenBatchT(t *testing.T, opts UDPOptions) Transport {
	t.Helper()
	tr, err := ListenUDPBatch("127.0.0.1:0", opts)
	if err != nil {
		t.Skip("no loopback:", err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// numbered builds n frames of size bytes whose first 4 bytes carry their
// sequence number.
func numbered(n, size int) []Frame {
	frames := make([]Frame, n)
	for i := range frames {
		data := make([]byte, size)
		binary.BigEndian.PutUint32(data, uint32(i))
		frames[i] = Frame{Data: data}
	}
	return frames
}

func waitFrames(t *testing.T, c *collector, want int) {
	t.Helper()
	waitCondition(t, 5*time.Second, func() error {
		if got := c.count(); got != want {
			return fmt.Errorf("delivered %d of %d frames", got, want)
		}
		return nil
	})
}

// Batched sender to batched receiver: the full GSO→GRO loop. Every frame
// must arrive intact and in submission order (one peer, one queue).
func TestBatchRoundTripOrdered(t *testing.T) {
	a := listenBatchT(t, UDPOptions{})
	b := listenBatchT(t, UDPOptions{})
	var c collector
	b.SetReceiver(c.receive)

	const n = 64
	frames := numbered(n, 512)
	for i := range frames {
		frames[i].Dst = b.LocalAddr()
	}
	bs, ok := a.(BatchSender)
	if !ok {
		t.Fatal("ListenUDPBatch result does not implement BatchSender")
	}
	sent, err := bs.SendBatch(frames)
	if err != nil || sent != n {
		t.Fatalf("SendBatch = %d, %v", sent, err)
	}
	waitFrames(t, &c, n)
	for i, f := range c.snapshot() {
		if len(f) != 512 {
			t.Fatalf("frame %d: len %d, want 512", i, len(f))
		}
		if seq := binary.BigEndian.Uint32(f); seq != uint32(i) {
			t.Fatalf("frame %d carries seq %d: reordered within one peer's queue", i, seq)
		}
	}
}

// GSO must be invisible to a plain per-frame receiver: a batched sender's
// super-packets arrive at an ordinary UDP socket as individual datagrams.
func TestBatchSendToPerFrameReceiver(t *testing.T) {
	a := listenBatchT(t, UDPOptions{})
	b, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback:", err)
	}
	defer b.Close()
	var c collector
	b.SetReceiver(c.receive)

	const n = 50
	frames := numbered(n, 300)
	for i := range frames {
		frames[i].Dst = b.LocalAddr()
	}
	if sent, err := a.(BatchSender).SendBatch(frames); err != nil || sent != n {
		t.Fatalf("SendBatch = %d, %v", sent, err)
	}
	waitFrames(t, &c, n)
	for i, f := range c.snapshot() {
		if seq := binary.BigEndian.Uint32(f); seq != uint32(i) {
			t.Fatalf("frame %d carries seq %d", i, seq)
		}
	}
}

// GRO must be invisible to the sender side too: per-frame sends into a
// batched receiver come out as the original frames.
func TestPerFrameSendToBatchReceiver(t *testing.T) {
	a, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback:", err)
	}
	defer a.Close()
	b := listenBatchT(t, UDPOptions{})
	var c collector
	b.SetReceiver(c.receive)

	const n = 32
	for i := 0; i < n; i++ {
		data := make([]byte, 256)
		binary.BigEndian.PutUint32(data, uint32(i))
		if err := a.Send(b.LocalAddr(), data); err != nil {
			t.Fatal(err)
		}
	}
	waitFrames(t, &c, n)
}

// Mixed frame sizes exercise the GSO grouping cut points: equal-size runs,
// a shorter trailing frame, singletons.
func TestBatchMixedSizes(t *testing.T) {
	a := listenBatchT(t, UDPOptions{})
	b := listenBatchT(t, UDPOptions{})
	var c collector
	b.SetReceiver(c.receive)

	sizes := []int{400, 400, 400, 120, 900, 900, 64, UDPMaxFrame, UDPMaxFrame, 5}
	frames := make([]Frame, len(sizes))
	for i, sz := range sizes {
		data := bytes.Repeat([]byte{byte(i + 1)}, sz)
		binary.BigEndian.PutUint32(data, uint32(i))
		frames[i] = Frame{Dst: b.LocalAddr(), Data: data}
	}
	if sent, err := a.(BatchSender).SendBatch(frames); err != nil || sent != len(frames) {
		t.Fatalf("SendBatch = %d, %v", sent, err)
	}
	waitFrames(t, &c, len(frames))
	for i, f := range c.snapshot() {
		if len(f) != sizes[i] {
			t.Fatalf("frame %d: len %d, want %d", i, len(f), sizes[i])
		}
		if !bytes.Equal(f[4:], frames[i].Data[4:]) {
			t.Fatalf("frame %d corrupted", i)
		}
	}
}

// An oversize frame mid-batch sends everything before it and reports
// ErrFrameTooLarge with the accepted count.
func TestBatchOversizeFramePartial(t *testing.T) {
	a := listenBatchT(t, UDPOptions{})
	b := listenBatchT(t, UDPOptions{})
	var c collector
	b.SetReceiver(c.receive)

	frames := numbered(5, 128)
	for i := range frames {
		frames[i].Dst = b.LocalAddr()
	}
	frames[3].Data = make([]byte, UDPMaxFrame+1)
	sent, err := a.(BatchSender).SendBatch(frames)
	if err != ErrFrameTooLarge {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if sent != 3 {
		t.Fatalf("accepted %d, want 3", sent)
	}
	waitFrames(t, &c, 3)
}

func TestBatchSendAfterClose(t *testing.T) {
	a := listenBatchT(t, UDPOptions{})
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(a.LocalAddr(), []byte("x")); err != ErrClosed {
		t.Fatalf("Send after close: %v", err)
	}
	if _, err := a.(BatchSender).SendBatch([]Frame{{Dst: a.LocalAddr(), Data: []byte("x")}}); err != ErrClosed {
		t.Fatalf("SendBatch after close: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// Explicit sharding: multiple SO_REUSEPORT sockets on one port, traffic
// from several sources all lands somewhere and nothing is duplicated.
func TestBatchShardedReceive(t *testing.T) {
	b := listenBatchT(t, UDPOptions{Shards: 2})
	var c collector
	b.SetReceiver(c.receive)

	const senders, per = 4, 25
	for s := 0; s < senders; s++ {
		a, err := ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Skip("no loopback:", err)
		}
		defer a.Close()
		for i := 0; i < per; i++ {
			data := make([]byte, 64)
			binary.BigEndian.PutUint32(data, uint32(s*per+i))
			if err := a.Send(b.LocalAddr(), data); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFrames(t, &c, senders*per)
	seen := make(map[uint32]bool)
	for _, f := range c.snapshot() {
		seq := binary.BigEndian.Uint32(f)
		if seen[seq] {
			t.Fatalf("frame %d delivered twice", seq)
		}
		seen[seq] = true
	}
}

// The generic fallback shim (what non-Linux platforms get) must keep exact
// per-frame semantics: SendBatch loops Send, BatchEnabled is false.
func TestBatchFallbackSemantics(t *testing.T) {
	u, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback:", err)
	}
	fb := &batchFallback{UDP: u}
	defer fb.Close()
	if fb.BatchEnabled() {
		t.Fatal("fallback claims a live batch path")
	}
	if SupportsBatch(fb) {
		t.Fatal("SupportsBatch(fallback) = true")
	}
	var c collector
	recv, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	recv.SetReceiver(c.receive)
	frames := numbered(8, 100)
	for i := range frames {
		frames[i].Dst = recv.LocalAddr()
	}
	if sent, err := fb.SendBatch(frames); err != nil || sent != 8 {
		t.Fatalf("fallback SendBatch = %d, %v", sent, err)
	}
	waitFrames(t, &c, 8)
}

func TestSupportsBatch(t *testing.T) {
	u, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback:", err)
	}
	defer u.Close()
	if SupportsBatch(u) {
		t.Fatal("plain UDP claims batch support")
	}
	ex := NewExchange()
	p := ex.Port("p")
	defer p.Close()
	if SupportsBatch(p) {
		t.Fatal("exchange port claims batch support")
	}
}

// Stats: the batched path must amortize — strictly fewer send operations
// than frames — and account every frame on both sides.
func TestBatchStatsAmortization(t *testing.T) {
	a := listenBatchT(t, UDPOptions{})
	b := listenBatchT(t, UDPOptions{})
	var c collector
	b.SetReceiver(c.receive)

	const n = 64
	frames := numbered(n, 512)
	for i := range frames {
		frames[i].Dst = b.LocalAddr()
	}
	if sent, err := a.(BatchSender).SendBatch(frames); err != nil || sent != n {
		t.Fatalf("SendBatch = %d, %v", sent, err)
	}
	waitFrames(t, &c, n)

	as, ok := a.(StatsReporter)
	if !ok {
		t.Fatal("batched transport has no stats")
	}
	st, live := as.TransportStats()
	if !live {
		t.Fatal("stats not live")
	}
	if st.SendFrames != n {
		t.Fatalf("SendFrames = %d, want %d", st.SendFrames, n)
	}
	if st.SendBatches >= n {
		t.Fatalf("SendBatches = %d for %d frames: no amortization", st.SendBatches, n)
	}
	if st.MaxSendBatch < 2 {
		t.Fatalf("MaxSendBatch = %d", st.MaxSendBatch)
	}
	bst, _ := b.(StatsReporter).TransportStats()
	if bst.RecvFrames != n {
		t.Fatalf("RecvFrames = %d, want %d", bst.RecvFrames, n)
	}
	t.Logf("send: %d frames in %d ops (gso=%d); recv: %d frames in %d ops (gro splits=%d)",
		st.SendFrames, st.SendBatches, st.GSOSends, bst.RecvFrames, bst.RecvBatches, bst.GROSplits)
}

// Per-frame UDP stats: counters move and oversize receive is recorded.
func TestUDPStats(t *testing.T) {
	a, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback:", err)
	}
	defer a.Close()
	b, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var c collector
	b.SetReceiver(c.receive)
	for i := 0; i < 3; i++ {
		if err := a.Send(b.LocalAddr(), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	waitFrames(t, &c, 3)
	st, live := a.TransportStats()
	if !live || st.SendFrames != 3 || st.SendBatches != 3 {
		t.Fatalf("sender stats = %+v, live=%v", st, live)
	}
	rst, _ := b.TransportStats()
	if rst.RecvFrames != 3 {
		t.Fatalf("RecvFrames = %d, want 3", rst.RecvFrames)
	}
}

// Concurrency: Send, SendBatch, and Close racing from many goroutines must
// be safe (run under -race by verify.sh).
func TestBatchConcurrentSendClose(t *testing.T) {
	for round := 0; round < 10; round++ {
		a := listenBatchT(t, UDPOptions{})
		b := listenBatchT(t, UDPOptions{})
		b.SetReceiver(func(Addr, []byte) {})
		dst := b.LocalAddr()
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				frames := numbered(16, 64)
				for i := range frames {
					frames[i].Dst = dst
				}
				for {
					select {
					case <-stop:
						return
					default:
					}
					a.Send(dst, []byte("one"))
					a.(BatchSender).SendBatch(frames)
				}
			}()
		}
		time.Sleep(5 * time.Millisecond)
		a.Close()
		close(stop)
		wg.Wait()
		b.Close()
	}
}
