package transport

import (
	"crypto/hmac"
	"crypto/sha256"
	"hash"
	"sync"
)

// The paper notes Firefly RPC "contains the structural hooks for
// authenticated and secure calls" without exercising them. This is that
// hook for the real stack: WithAuth decorates any Transport so that every
// frame carries a truncated HMAC-SHA256 tag computed under a shared key.
// Frames with missing or wrong tags are dropped silently — to the protocol
// layer they look like packet loss, which it already recovers from, so
// authentication composes with retransmission for free.

// authTagLen is the truncated MAC size appended to each frame.
const authTagLen = 16

// Auth wraps an inner transport with per-frame authentication.
type Auth struct {
	inner Transport
	// scratch pools *authScratch: keyed HMAC state plus tag and frame
	// buffers, so tagging and verifying a frame allocate nothing.
	scratch sync.Pool

	mu   sync.RWMutex
	recv Receiver

	dropped int64
}

// WithAuth returns a transport whose frames are authenticated with key.
// Both ends must use the same key; unauthenticated or tampered frames are
// discarded on receive.
func WithAuth(inner Transport, key []byte) *Auth {
	key = append([]byte(nil), key...)
	a := &Auth{inner: inner}
	a.scratch.New = func() any { return &authScratch{mac: hmac.New(sha256.New, key)} }
	inner.SetReceiver(a.onFrame)
	return a
}

// authScratch is one goroutine's tagging state.
type authScratch struct {
	mac hash.Hash // keyed; Reset returns it to the keyed initial state
	sum [sha256.Size]byte
	out []byte // Send's tagged copy of the frame
}

// tag computes frame's truncated tag into s.sum.
func (s *authScratch) tag(frame []byte) []byte {
	s.mac.Reset()
	s.mac.Write(frame)
	return s.mac.Sum(s.sum[:0])[:authTagLen]
}

// Send appends the authentication tag and transmits. The tagged copy lives
// in pooled scratch: the inner transport does not retain frames.
func (a *Auth) Send(dst Addr, frame []byte) error {
	if len(frame) > a.MaxFrame() {
		return ErrFrameTooLarge
	}
	s := a.scratch.Get().(*authScratch)
	s.out = append(append(s.out[:0], frame...), s.tag(frame)...)
	err := a.inner.Send(dst, s.out)
	a.scratch.Put(s)
	return err
}

// SendBatch implements BatchSender: every frame is tagged and the batch
// goes to the inner transport's SendBatch in one call, so a fragment
// window over authenticated UDP still leaves in one syscall. An inner
// transport without SendBatch gets one Send per frame. A frame over
// MaxFrame stops the batch, as Send refuses it.
func (a *Auth) SendBatch(frames []Frame) (int, error) {
	max := a.MaxFrame()
	n, size := len(frames), 0
	for i, f := range frames {
		if len(f.Data) > max {
			n = i
			break
		}
		size += len(f.Data) + authTagLen
	}
	buf := make([]byte, 0, size)
	tagged := make([]Frame, n)
	s := a.scratch.Get().(*authScratch)
	for i, f := range frames[:n] {
		start := len(buf)
		buf = append(buf, f.Data...)
		buf = append(buf, s.tag(f.Data)...)
		tagged[i] = Frame{Dst: f.Dst, Data: buf[start:len(buf):len(buf)]}
	}
	a.scratch.Put(s)
	sent, err := a.sendTagged(tagged)
	if err == nil && n < len(frames) {
		err = ErrFrameTooLarge
	}
	return sent, err
}

func (a *Auth) sendTagged(frames []Frame) (int, error) {
	if bs, ok := a.inner.(BatchSender); ok {
		return bs.SendBatch(frames)
	}
	for i, f := range frames {
		if err := a.inner.Send(f.Dst, f.Data); err != nil {
			return i, err
		}
	}
	return len(frames), nil
}

// BatchEnabled implements BatchSender: it is the inner transport's answer.
func (a *Auth) BatchEnabled() bool { return SupportsBatch(a.inner) }

// TransportStats implements StatsReporter with the inner transport's
// counters, which count tagged frames.
func (a *Auth) TransportStats() (Stats, bool) {
	if sr, ok := a.inner.(StatsReporter); ok {
		return sr.TransportStats()
	}
	return Stats{}, false
}

// onFrame verifies and strips the tag before delivery.
func (a *Auth) onFrame(src Addr, frame []byte) {
	if len(frame) < authTagLen {
		a.mu.Lock()
		a.dropped++
		a.mu.Unlock()
		return
	}
	body := frame[:len(frame)-authTagLen]
	s := a.scratch.Get().(*authScratch)
	ok := hmac.Equal(frame[len(frame)-authTagLen:], s.tag(body))
	a.scratch.Put(s)
	if !ok {
		a.mu.Lock()
		a.dropped++
		a.mu.Unlock()
		return
	}
	a.mu.RLock()
	recv := a.recv
	a.mu.RUnlock()
	if recv != nil {
		recv(src, body)
	}
}

// SetReceiver implements Transport.
func (a *Auth) SetReceiver(r Receiver) {
	a.mu.Lock()
	a.recv = r
	a.mu.Unlock()
}

// LocalAddr implements Transport.
func (a *Auth) LocalAddr() Addr { return a.inner.LocalAddr() }

// MaxFrame implements Transport: the tag eats into the frame budget.
func (a *Auth) MaxFrame() int { return a.inner.MaxFrame() - authTagLen }

// Close implements Transport.
func (a *Auth) Close() error { return a.inner.Close() }

// Dropped reports how many frames failed authentication.
func (a *Auth) Dropped() int64 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.dropped
}
