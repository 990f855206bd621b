package faultnet

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"

	"fireflyrpc/internal/buffer"
	"fireflyrpc/internal/transport"
)

// Transport impairs a real transport: frames the wrapped endpoint sends
// pass through the engine as DirOut, frames it receives as DirIn. It wraps
// anything implementing transport.Transport — an Exchange MemPort for
// in-process tests, a UDP socket for loopback/network runs — so one
// impairment implementation covers both real transports.
//
// With a zero profile the wrapper is pass-through: Send forwards the
// caller's slice unchanged and receive callbacks are delivered inline, so
// the protocol's zero-allocation fast path and its budgets survive intact.
// Any delayed or duplicated frame is copied into a pooled buffer and
// delivered from the wrapper's scheduler goroutine — deliberately
// concurrent with the transport's own receive goroutine, because that is
// the concurrency a real lossy network exhibits and the protocol must
// tolerate.
type Transport struct {
	inner transport.Transport
	im    *Impairer
	start time.Time

	recv   atomic.Value // transport.Receiver
	closed atomic.Bool

	mu     sync.Mutex
	events eventHeap
	seqCtr uint64 // heap tie-break, guarded by mu
	kick   chan struct{}
	quit   chan struct{}
	done   chan struct{}

	frames buffer.FramePool
}

// event is one deferred frame action: a delayed outbound send (dst != nil)
// or a delayed inbound delivery (src != nil).
type event struct {
	dueNs int64
	seq   uint64 // tie-break so equal deadlines pop in schedule order
	src   transport.Addr
	dst   transport.Addr
	f     *buffer.Frame
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].dueNs != h[j].dueNs {
		return h[i].dueNs < h[j].dueNs
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Wrap builds an impaired view of inner under prof with the given seed.
func Wrap(inner transport.Transport, prof Profile, seed uint64) *Transport {
	t := &Transport{
		inner: inner,
		im:    NewImpairer(prof, seed),
		start: time.Now(),
		kick:  make(chan struct{}, 1),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	inner.SetReceiver(t.onFrame)
	go t.loop()
	return t
}

// Impairer exposes the engine (for SetProfile swaps and Stats).
func (t *Transport) Impairer() *Impairer { return t.im }

func (t *Transport) elapsed() time.Duration { return time.Since(t.start) }

// Send implements transport.Transport.
func (t *Transport) Send(dst transport.Addr, frame []byte) error {
	if t.closed.Load() {
		return transport.ErrClosed
	}
	if len(frame) > t.inner.MaxFrame() {
		return transport.ErrFrameTooLarge
	}
	v := t.im.Decide(DirOut, t.elapsed(), len(frame))
	if v.Drop {
		return nil // lost, as on the wire
	}
	if !v.Dup && v.Delay == 0 && v.CorruptAt < 0 {
		return t.inner.Send(dst, frame) // pass-through fast path
	}
	if v.Dup {
		t.schedule(event{dst: dst}, frame, v.DupDelay, -1, 0)
	}
	if v.Delay == 0 && v.CorruptAt < 0 {
		return t.inner.Send(dst, frame)
	}
	t.schedule(event{dst: dst}, frame, v.Delay, v.CorruptAt, v.CorruptXor)
	return nil
}

// SendBatch implements transport.BatchSender. The impairment engine sees
// every frame individually, in submission order — exactly the Decide
// sequence the per-frame path would produce — so a seed reproduces the same
// schedule on either datapath. Contiguous runs of unimpaired frames are
// forwarded to the inner transport's own SendBatch, keeping the syscall
// amortization; impaired frames leave the run and take the per-frame
// drop/dup/delay/corrupt machinery. A frame over MaxFrame stops the batch
// before the engine sees it, as Send refuses it.
func (t *Transport) SendBatch(frames []transport.Frame) (int, error) {
	if t.closed.Load() {
		return 0, transport.ErrClosed
	}
	bs, live := t.inner.(transport.BatchSender)
	runStart := -1 // start of the current unimpaired run, -1 when none
	// flush forwards the run ending before end and returns how many frames
	// of the batch are accepted so far.
	flush := func(end int) (int, error) {
		if runStart < 0 {
			return end, nil
		}
		start := runStart
		runStart = -1
		if live {
			n, err := bs.SendBatch(frames[start:end])
			return start + n, err
		}
		for i := start; i < end; i++ {
			if err := t.inner.Send(frames[i].Dst, frames[i].Data); err != nil {
				return i, err
			}
		}
		return end, nil
	}
	max := t.inner.MaxFrame()
	for i := range frames {
		if len(frames[i].Data) > max {
			if n, err := flush(i); err != nil {
				return n, err
			}
			return i, transport.ErrFrameTooLarge
		}
		v := t.im.Decide(DirOut, t.elapsed(), len(frames[i].Data))
		if !v.Drop && !v.Dup && v.Delay == 0 && v.CorruptAt < 0 {
			if runStart < 0 {
				runStart = i
			}
			continue
		}
		if n, err := flush(i); err != nil {
			return n, err
		}
		if v.Drop {
			continue // lost, as on the wire
		}
		if v.Dup {
			t.schedule(event{dst: frames[i].Dst}, frames[i].Data, v.DupDelay, -1, 0)
		}
		if v.Delay == 0 && v.CorruptAt < 0 {
			if err := t.inner.Send(frames[i].Dst, frames[i].Data); err != nil {
				return i, err
			}
			continue
		}
		t.schedule(event{dst: frames[i].Dst}, frames[i].Data, v.Delay, v.CorruptAt, v.CorruptXor)
	}
	return flush(len(frames))
}

// BatchEnabled implements transport.BatchSender: the wrapper batches only
// when the wrapped transport really does.
func (t *Transport) BatchEnabled() bool {
	bs, ok := t.inner.(transport.BatchSender)
	return ok && bs.BatchEnabled()
}

// TransportStats forwards the wrapped transport's counters.
func (t *Transport) TransportStats() (transport.Stats, bool) {
	if sr, ok := t.inner.(transport.StatsReporter); ok {
		return sr.TransportStats()
	}
	return transport.Stats{}, false
}

// onFrame is the inner transport's receive callback.
func (t *Transport) onFrame(src transport.Addr, frame []byte) {
	r, _ := t.recv.Load().(transport.Receiver)
	if r == nil || t.closed.Load() {
		return
	}
	v := t.im.Decide(DirIn, t.elapsed(), len(frame))
	if v.Drop {
		return
	}
	if v.Dup {
		// The duplicate always travels through the scheduler, so it arrives
		// on a different goroutine than the original — duplicates that
		// genuinely race are exactly what duplicate-suppression code must
		// survive.
		t.schedule(event{src: src}, frame, v.DupDelay, -1, 0)
	}
	if v.Delay == 0 && v.CorruptAt < 0 {
		r(src, frame)
		return
	}
	t.schedule(event{src: src}, frame, v.Delay, v.CorruptAt, v.CorruptXor)
}

// schedule copies frame into a pooled buffer (applying corruption to the
// copy — never to the caller's slice, which the protocol may retain for
// retransmission) and queues it for delivery after delay.
func (t *Transport) schedule(e event, frame []byte, delay time.Duration, corruptAt int, xor byte) {
	f := t.frames.Get()
	f.CopyFrom(frame)
	if corruptAt >= 0 && corruptAt < f.Len() {
		f.Bytes()[corruptAt] ^= xor
	}
	e.f = f
	e.dueNs = t.elapsed().Nanoseconds() + delay.Nanoseconds()
	t.mu.Lock()
	if t.closed.Load() {
		t.mu.Unlock()
		f.Release()
		return
	}
	t.seqCtr++
	e.seq = t.seqCtr
	heap.Push(&t.events, e)
	t.mu.Unlock()
	select {
	case t.kick <- struct{}{}:
	default:
	}
}

// loop delivers deferred frames when due.
func (t *Transport) loop() {
	defer close(t.done)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		var wait time.Duration = time.Hour
		for {
			t.mu.Lock()
			if len(t.events) == 0 {
				t.mu.Unlock()
				break
			}
			now := t.elapsed().Nanoseconds()
			e := t.events[0]
			if e.dueNs > now {
				wait = time.Duration(e.dueNs - now)
				t.mu.Unlock()
				break
			}
			heap.Pop(&t.events)
			t.mu.Unlock()
			t.fire(e)
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-timer.C:
		case <-t.kick:
		case <-t.quit:
			return
		}
	}
}

// fire performs one deferred action and recycles its buffer.
func (t *Transport) fire(e event) {
	if !t.closed.Load() {
		if e.dst != nil {
			_ = t.inner.Send(e.dst, e.f.Bytes())
		} else if r, _ := t.recv.Load().(transport.Receiver); r != nil {
			r(e.src, e.f.Bytes())
		}
	}
	e.f.Release()
}

// SetReceiver implements transport.Transport.
func (t *Transport) SetReceiver(r transport.Receiver) { t.recv.Store(r) }

// LocalAddr implements transport.Transport.
func (t *Transport) LocalAddr() transport.Addr { return t.inner.LocalAddr() }

// MaxFrame implements transport.Transport.
func (t *Transport) MaxFrame() int { return t.inner.MaxFrame() }

// Close implements transport.Transport: stops the scheduler, releases every
// queued frame, and closes the wrapped transport.
func (t *Transport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	close(t.quit)
	<-t.done
	t.mu.Lock()
	for _, e := range t.events {
		e.f.Release()
	}
	t.events = nil
	t.mu.Unlock()
	return t.inner.Close()
}
