package transport

import (
	"encoding/binary"
	"testing"
	"time"
)

func authPair(t *testing.T, callerKey, serverKey []byte) (*Auth, *Auth) {
	t.Helper()
	ex := NewExchange()
	a := WithAuth(ex.Port("a"), callerKey)
	b := WithAuth(ex.Port("b"), serverKey)
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestAuthRoundTrip(t *testing.T) {
	key := []byte("shared secret")
	a, b := authPair(t, key, key)
	got := make(chan []byte, 1)
	b.SetReceiver(func(src Addr, frame []byte) { got <- append([]byte(nil), frame...) })
	if err := a.Send(AddrOf("b"), []byte("authenticated")); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-got:
		if string(f) != "authenticated" {
			t.Fatalf("frame %q (tag not stripped?)", f)
		}
	case <-time.After(time.Second):
		t.Fatal("authenticated frame not delivered")
	}
}

func TestAuthRejectsWrongKey(t *testing.T) {
	a, b := authPair(t, []byte("key-one"), []byte("key-two"))
	got := make(chan []byte, 1)
	b.SetReceiver(func(src Addr, frame []byte) { got <- frame })
	a.Send(AddrOf("b"), []byte("forged"))
	select {
	case <-got:
		t.Fatal("frame under wrong key delivered")
	case <-time.After(50 * time.Millisecond):
	}
	if b.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", b.Dropped())
	}
}

func TestAuthRejectsTamperedFrame(t *testing.T) {
	key := []byte("k")
	ex := NewExchange()
	a := WithAuth(ex.Port("a"), key)
	// Raw port tampers: receives authenticated bytes, flips one, re-sends.
	rawB := ex.Port("b")
	c := WithAuth(ex.Port("c"), key)
	defer a.Close()
	defer rawB.Close()
	defer c.Close()

	rawB.SetReceiver(func(src Addr, frame []byte) {
		evil := append([]byte(nil), frame...)
		evil[0] ^= 0x01
		rawB.Send(AddrOf("c"), evil)
	})
	got := make(chan struct{}, 1)
	c.SetReceiver(func(Addr, []byte) { got <- struct{}{} })

	a.Send(AddrOf("b"), []byte("message"))
	select {
	case <-got:
		t.Fatal("tampered frame delivered")
	case <-time.After(50 * time.Millisecond):
	}
	if c.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", c.Dropped())
	}
}

func TestAuthRejectsUnauthenticatedSender(t *testing.T) {
	key := []byte("k")
	ex := NewExchange()
	raw := ex.Port("raw")
	b := WithAuth(ex.Port("b"), key)
	defer raw.Close()
	defer b.Close()
	got := make(chan struct{}, 1)
	b.SetReceiver(func(Addr, []byte) { got <- struct{}{} })
	raw.Send(AddrOf("b"), []byte("no tag at all"))
	raw.Send(AddrOf("b"), []byte("x")) // shorter than a tag
	select {
	case <-got:
		t.Fatal("unauthenticated frame delivered")
	case <-time.After(50 * time.Millisecond):
	}
	if b.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", b.Dropped())
	}
}

func TestAuthMaxFrameShrinks(t *testing.T) {
	ex := NewExchange()
	p := ex.Port("p")
	a := WithAuth(p, []byte("k"))
	defer a.Close()
	if a.MaxFrame() != p.MaxFrame()-authTagLen {
		t.Fatal("MaxFrame must shrink by the tag length")
	}
	if err := a.Send(AddrOf("q"), make([]byte, a.MaxFrame()+1)); err != ErrFrameTooLarge {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// A window handed to an authenticated UDP socket leaves as the socket's
// own batch: one send operation where SendBatch is a vector send, and the
// receiver gets every frame verified and stripped of its tag.
func TestAuthSendBatchKeepsBatching(t *testing.T) {
	key := []byte("k")
	a, b := WithAuth(listenT(t), key), WithAuth(listenT(t), key)
	if got, want := SupportsBatch(a), SupportsBatch(a.inner); got != want {
		t.Fatalf("SupportsBatch = %v, inner %v", got, want)
	}
	var c collector
	b.SetReceiver(c.receive)
	frames := numbered(8, a.MaxFrame())
	for i := range frames {
		frames[i].Dst = b.LocalAddr()
	}
	if sent, err := a.SendBatch(frames); err != nil || sent != len(frames) {
		t.Fatalf("SendBatch = %d, %v", sent, err)
	}
	waitFrames(t, &c, len(frames))
	for i, f := range c.snapshot() {
		if len(f) != a.MaxFrame() || binary.BigEndian.Uint32(f) != uint32(i) {
			t.Fatalf("frame %d: %d bytes, seq %d", i, len(f), binary.BigEndian.Uint32(f))
		}
	}
	st, live := a.TransportStats()
	if !live || st.SendFrames != 8 || st.SendBatches != sendOps(8) {
		t.Fatalf("8 frames left in %d send operations (live %v, %d frames), want %d", st.SendBatches, live, st.SendFrames, sendOps(8))
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// Tagging reuses keyed HMAC state and scratch: an authenticated Send and
// its verified delivery over the exchange allocate no more than the
// exchange does on its own.
func TestAuthSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under -race")
	}
	key := []byte("shared secret")
	a, b := authPair(t, key, key)
	delivered := make(chan struct{}, 1)
	b.SetReceiver(func(Addr, []byte) { delivered <- struct{}{} })
	frame := make([]byte, 512)
	dst := AddrOf("b")
	allocs := testing.AllocsPerRun(200, func() {
		if err := a.Send(dst, frame); err != nil {
			t.Fatal(err)
		}
		<-delivered
	})
	t.Logf("%.1f allocations per authenticated Send and delivery", allocs)
	if allocs > 3 {
		t.Fatalf("%.1f allocations per authenticated Send and delivery, want at most 3", allocs)
	}
	if b.Dropped() != 0 {
		t.Fatalf("%d frames failed authentication", b.Dropped())
	}
}
