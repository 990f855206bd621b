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

// listenT opens a UDP transport on loopback, closed when t ends.
func listenT(t *testing.T) *UDP {
	t.Helper()
	u, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback:", err)
	}
	t.Cleanup(func() { u.Close() })
	return u
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

// SendBatch to a receiving socket: the full GSO→GRO loop. Every frame
// must arrive intact and in submission order (one peer, one queue).
func TestBatchRoundTripOrdered(t *testing.T) {
	a := listenT(t)
	b := listenT(t)
	var c collector
	b.SetReceiver(c.receive)

	const n = 64
	frames := numbered(n, 512)
	for i := range frames {
		frames[i].Dst = b.LocalAddr()
	}
	sent, err := a.SendBatch(frames)
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

// The read loop takes every datagram queued behind a busy callback in one
// receive operation, from however many peers: one recvmmsg. A loop reading
// one datagram at a time needs a read for each, since GRO never coalesces
// datagrams from different peers.
func TestUDPVectorRead(t *testing.T) {
	if !vectorIO {
		t.Skip("no vector read on this platform")
	}
	r := listenT(t)
	a, b := listenT(t), listenT(t)
	held, release := make(chan struct{}), make(chan struct{})
	var first sync.Once
	var c collector
	r.SetReceiver(func(src Addr, frame []byte) {
		first.Do(func() {
			close(held)
			<-release
		})
		c.receive(src, frame)
	})
	if err := a.Send(r.LocalAddr(), []byte("first")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-held:
	case <-time.After(5 * time.Second):
		t.Fatal("first frame never delivered")
	}
	const per = 3
	for i := 0; i < per; i++ {
		for _, s := range []*UDP{a, b} {
			if err := s.Send(r.LocalAddr(), []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	time.Sleep(50 * time.Millisecond) // let loopback queue them all
	close(release)
	waitFrames(t, &c, 1+2*per)
	if st, _ := r.TransportStats(); st.RecvBatches != 2 {
		t.Fatalf("%d frames from two peers took %d receive operations after the first, want 1",
			2*per, st.RecvBatches-1)
	}
}

// Mixed frame sizes exercise the GSO grouping cut points: equal-size runs,
// a shorter trailing frame, singletons.
func TestBatchMixedSizes(t *testing.T) {
	a := listenT(t)
	b := listenT(t)
	var c collector
	b.SetReceiver(c.receive)

	sizes := []int{400, 400, 400, 120, 900, 900, 64, UDPMaxFrame, UDPMaxFrame, 5}
	frames := make([]Frame, len(sizes))
	for i, sz := range sizes {
		data := bytes.Repeat([]byte{byte(i + 1)}, sz)
		binary.BigEndian.PutUint32(data, uint32(i))
		frames[i] = Frame{Dst: b.LocalAddr(), Data: data}
	}
	if sent, err := a.SendBatch(frames); err != nil || sent != len(frames) {
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
	a := listenT(t)
	b := listenT(t)
	var c collector
	b.SetReceiver(c.receive)

	frames := numbered(5, 128)
	for i := range frames {
		frames[i].Dst = b.LocalAddr()
	}
	frames[3].Data = make([]byte, UDPMaxFrame+1)
	sent, err := a.SendBatch(frames)
	if err != ErrFrameTooLarge {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if sent != 3 {
		t.Fatalf("accepted %d, want 3", sent)
	}
	waitFrames(t, &c, 3)
}

func TestBatchSendAfterClose(t *testing.T) {
	a := listenT(t)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(a.LocalAddr(), []byte("x")); err != ErrClosed {
		t.Fatalf("Send after close: %v", err)
	}
	if _, err := a.SendBatch([]Frame{{Dst: a.LocalAddr(), Data: []byte("x")}}); err != ErrClosed {
		t.Fatalf("SendBatch after close: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// Without UDP_SEGMENT SendBatch keeps per-frame semantics: no GSO message,
// every frame its own datagram, in one sendmmsg on Linux and one Send each
// elsewhere, and BatchEnabled stays false.
func TestBatchFallbackSemantics(t *testing.T) {
	u, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback:", err)
	}
	defer u.Close()
	withoutGSO(u)
	if u.BatchEnabled() {
		t.Fatal("ListenUDP claims a live batch path")
	}
	if SupportsBatch(u) {
		t.Fatal("SupportsBatch(ListenUDP) = true")
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
	if sent, err := u.SendBatch(frames); err != nil || sent != 8 {
		t.Fatalf("fallback SendBatch = %d, %v", sent, err)
	}
	waitFrames(t, &c, 8)
	if st, _ := u.TransportStats(); st.SendBatches != sendOps(8) || st.GSOSends != 0 {
		t.Fatalf("fallback sent 8 frames in %d operations (%d GSO), want %d (0)", st.SendBatches, st.GSOSends, sendOps(8))
	}
}

func TestSupportsBatch(t *testing.T) {
	u, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback:", err)
	}
	defer u.Close()
	if SupportsBatch(u) {
		t.Fatal("ListenUDP claims batch support")
	}
	ub, err := ListenUDPBatch("127.0.0.1:0", UDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ub.Close()
	if SupportsBatch(ub) != vectorIO {
		t.Fatalf("SupportsBatch(ListenUDPBatch) = %v, want %v: true exactly where SendBatch is a vector send", SupportsBatch(ub), vectorIO)
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
	a := listenT(t)
	b := listenT(t)
	var c collector
	b.SetReceiver(c.receive)

	const n = 64
	frames := numbered(n, 512)
	for i := range frames {
		frames[i].Dst = b.LocalAddr()
	}
	if sent, err := a.SendBatch(frames); err != nil || sent != n {
		t.Fatalf("SendBatch = %d, %v", sent, err)
	}
	waitFrames(t, &c, n)

	st, live := a.TransportStats()
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
	bst, _ := b.TransportStats()
	if bst.RecvFrames != n {
		t.Fatalf("RecvFrames = %d, want %d", bst.RecvFrames, n)
	}
	t.Logf("send: %d frames in %d ops (gso=%d); recv: %d frames in %d ops (gro splits=%d)",
		st.SendFrames, st.SendBatches, st.GSOSends, bst.RecvFrames, bst.RecvBatches, bst.GROSplits)
}

// UDP stats: counters move on both sides.
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
	for round := 0; round < 20; round++ {
		a := listenT(t)
		b := listenT(t)
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
					a.SendBatch(frames)
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

// SendBatch: a window of equal frames ending in a shorter one leaves in one
// send operation (one GSO message where the kernel has UDP_SEGMENT) and
// arrives whole and in order, split back into frames.
func TestUDPSendBatchGSO(t *testing.T) {
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

	frames := numbered(17, UDPMaxFrame)
	frames[16].Data = frames[16].Data[:300]
	for i := range frames {
		frames[i].Dst = b.LocalAddr()
	}
	if sent, err := a.SendBatch(frames); err != nil || sent != len(frames) {
		t.Fatalf("SendBatch = %d, %v", sent, err)
	}
	waitFrames(t, &c, len(frames))
	for i, f := range c.snapshot() {
		if got := binary.BigEndian.Uint32(f); got != uint32(i) || len(f) != len(frames[i].Data) {
			t.Fatalf("frame %d: seq %d, len %d; want seq %d, len %d", i, got, len(f), i, len(frames[i].Data))
		}
	}
	st, _ := a.TransportStats()
	rst, _ := b.TransportStats()
	t.Logf("send: %d frames in %d ops (gso %d); recv: %d frames in %d ops (gro splits %d)",
		st.SendFrames, st.SendBatches, st.GSOSends, rst.RecvFrames, rst.RecvBatches, rst.GROSplits)
	if gsoOn(a) && (st.SendBatches != 1 || st.GSOSends != 1) {
		t.Fatalf("GSO sender used %d send ops and %d GSO messages, want 1 and 1", st.SendBatches, st.GSOSends)
	}
}

// When the kernel refuses UDP_SEGMENT, SendBatch turns GSO off for good and
// sends the refused run, and every later batch, one frame per message: each
// batch still leaves in one sendmmsg.
func TestUDPGSORefusedFallsBack(t *testing.T) {
	a, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback:", err)
	}
	defer a.Close()
	if !gsoOn(a) {
		t.Skip("no UDP_SEGMENT on this platform")
	}
	if err := refuseGSO(a); err != nil {
		t.Skip("cannot make the kernel refuse GSO:", err)
	}
	b, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var c collector
	b.SetReceiver(c.receive)
	for round := 0; round < 2; round++ {
		frames := numbered(8, 200)
		for i := range frames {
			frames[i].Dst = b.LocalAddr()
		}
		if sent, err := a.SendBatch(frames); err != nil || sent != len(frames) {
			t.Fatalf("round %d: SendBatch = %d, %v", round, sent, err)
		}
		waitFrames(t, &c, 8*(round+1))
	}
	if gsoOn(a) {
		t.Fatal("GSO still on after the kernel refused it")
	}
	if st, _ := a.TransportStats(); st.GSOSends != 0 || st.SendBatches != 2 || st.SendFrames != 16 {
		t.Fatalf("sent %d frames in %d ops (%d GSO), want 16 in 2 (0)", st.SendFrames, st.SendBatches, st.GSOSends)
	}
}
