package transport

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func newTCPPair(t *testing.T) (*TCP, *TCP) {
	t.Helper()
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenTCP a: %v", err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenTCP b: %v", err)
	}
	t.Cleanup(func() { b.Close() })
	return a, b
}

type tcpCollector struct {
	mu     sync.Mutex
	frames [][]byte
	srcs   []string
}

func (c *tcpCollector) receiver() Receiver {
	return func(src Addr, frame []byte) {
		c.mu.Lock()
		c.frames = append(c.frames, append([]byte(nil), frame...))
		c.srcs = append(c.srcs, src.String())
		c.mu.Unlock()
	}
}

func (c *tcpCollector) wait(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		got := len(c.frames)
		c.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %d frames, have %d", n, got)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	a, b := newTCPPair(t)
	var onA, onB tcpCollector
	a.SetReceiver(onA.receiver())
	b.SetReceiver(onB.receiver())

	// a dials b; replies from b must ride back over the same stream and
	// arrive attributed to b's canonical listen address.
	msg := []byte("hello over the stream")
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := a.Send(b.LocalAddr(), msg); err != nil {
			t.Fatalf("Send: %v", err)
		}
		onB.mu.Lock()
		got := len(onB.frames)
		onB.mu.Unlock()
		if got > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("frame never delivered a→b")
		}
		time.Sleep(5 * time.Millisecond)
	}
	onB.mu.Lock()
	if !bytes.Equal(onB.frames[0], msg) {
		t.Fatalf("frame = %q, want %q", onB.frames[0], msg)
	}
	if onB.srcs[0] != a.LocalAddr().String() {
		t.Fatalf("src = %q, want a's listen addr %q", onB.srcs[0], a.LocalAddr().String())
	}
	onB.mu.Unlock()

	reply := []byte("reply on the shared stream")
	if err := b.Send(a.LocalAddr(), reply); err != nil {
		t.Fatalf("reply Send: %v", err)
	}
	onA.wait(t, 1)
	onA.mu.Lock()
	if !bytes.Equal(onA.frames[0], reply) {
		t.Fatalf("reply = %q, want %q", onA.frames[0], reply)
	}
	if onA.srcs[0] != b.LocalAddr().String() {
		t.Fatalf("reply src = %q, want b's listen addr %q", onA.srcs[0], b.LocalAddr().String())
	}
	onA.mu.Unlock()
}

func TestTCPReconnect(t *testing.T) {
	a, b := newTCPPair(t)
	var onB tcpCollector
	b.SetReceiver(onB.receiver())

	send := func(payload []byte) {
		t.Helper()
		want := 0
		onB.mu.Lock()
		want = len(onB.frames) + 1
		onB.mu.Unlock()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if err := a.Send(b.LocalAddr(), payload); err != nil {
				t.Fatalf("Send: %v", err)
			}
			onB.mu.Lock()
			got := len(onB.frames)
			onB.mu.Unlock()
			if got >= want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("frame never delivered")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	send([]byte("before the cut"))

	// Kill the live stream out from under the transport; the next sends
	// must re-establish it via the background dialer.
	p := a.peerOf(b.LocalAddr().String())
	p.mu.Lock()
	if p.conn != nil {
		p.conn.Close()
	}
	p.mu.Unlock()

	send([]byte("after the cut"))
}

func TestTCPOversizeAndClosed(t *testing.T) {
	a, b := newTCPPair(t)
	big := make([]byte, TCPMaxFrame+1)
	if err := a.Send(b.LocalAddr(), big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize Send err = %v, want ErrFrameTooLarge", err)
	}
	if err := a.Send(b.LocalAddr(), make([]byte, TCPMaxFrame)); err != nil {
		t.Fatalf("max-size Send err = %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := a.Send(b.LocalAddr(), []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after Close err = %v, want ErrClosed", err)
	}
	if _, err := a.SendBatch([]Frame{{Dst: b.LocalAddr(), Data: []byte("x")}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("SendBatch after Close err = %v, want ErrClosed", err)
	}
}

func TestTCPSendBatch(t *testing.T) {
	a, b := newTCPPair(t)
	var onB tcpCollector
	b.SetReceiver(onB.receiver())

	if !SupportsBatch(a) {
		t.Fatal("TCP should report a live batched datapath")
	}

	// Warm the connection so the batch isn't dropped while dialing.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := a.Send(b.LocalAddr(), []byte("warm")); err != nil {
			t.Fatalf("warm Send: %v", err)
		}
		onB.mu.Lock()
		got := len(onB.frames)
		onB.mu.Unlock()
		if got > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("warmup frame never delivered")
		}
		time.Sleep(5 * time.Millisecond)
	}

	const n = 32
	frames := make([]Frame, n)
	for i := range frames {
		frames[i] = Frame{Dst: b.LocalAddr(), Data: []byte(fmt.Sprintf("frame-%03d", i))}
	}
	sent, err := a.SendBatch(frames)
	if err != nil {
		t.Fatalf("SendBatch: %v", err)
	}
	if sent != n {
		t.Fatalf("SendBatch accepted %d, want %d", sent, n)
	}

	// The warmup loop may have delivered several "warm" duplicates; the
	// stream guarantees they all precede the batch, so filter them out and
	// check the batch arrived complete and in submission order.
	deadline = time.Now().Add(5 * time.Second)
	for {
		onB.mu.Lock()
		var batch []string
		for _, f := range onB.frames {
			if string(f) != "warm" {
				batch = append(batch, string(f))
			}
		}
		onB.mu.Unlock()
		if len(batch) >= n {
			for i := 0; i < n; i++ {
				want := fmt.Sprintf("frame-%03d", i)
				if batch[i] != want {
					t.Fatalf("frame %d = %q, want %q", i, batch[i], want)
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout: %d/%d batch frames delivered", len(batch), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTCPStats(t *testing.T) {
	a, b := newTCPPair(t)
	var onB tcpCollector
	b.SetReceiver(onB.receiver())

	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := a.Send(b.LocalAddr(), []byte("counted")); err != nil {
			t.Fatalf("Send: %v", err)
		}
		onB.mu.Lock()
		got := len(onB.frames)
		onB.mu.Unlock()
		if got > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("frame never delivered")
		}
		time.Sleep(5 * time.Millisecond)
	}

	sa, ok := a.TransportStats()
	if !ok {
		t.Fatal("a.TransportStats not ok")
	}
	if sa.SendFrames == 0 || sa.SendBatches == 0 {
		t.Fatalf("sender stats did not move: %+v", sa)
	}
	sb, ok := b.TransportStats()
	if !ok {
		t.Fatal("b.TransportStats not ok")
	}
	if sb.RecvFrames == 0 || sb.RecvBatches == 0 {
		t.Fatalf("receiver stats did not move: %+v", sb)
	}
}

func TestTCPResolveAddr(t *testing.T) {
	if _, err := ResolveTCPAddr("not-an-addr"); err == nil {
		t.Fatal("ResolveTCPAddr accepted a malformed address")
	}
	addr, err := ResolveTCPAddr("127.0.0.1:9999")
	if err != nil {
		t.Fatalf("ResolveTCPAddr: %v", err)
	}
	if addr.String() != "127.0.0.1:9999" || addr.Network() != "tcp" {
		t.Fatalf("addr = %q/%q", addr.String(), addr.Network())
	}
}
