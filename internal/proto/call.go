package proto

import (
	"context"
	"time"

	"fireflyrpc/internal/buffer"
	"fireflyrpc/internal/transport"
	"fireflyrpc/internal/wire"
)

// Pending is the handle to one in-flight asynchronous call started with
// StartCall. Exactly one goroutine must eventually call Await, which
// collects the result and recycles the call's pooled state; after Await
// returns, the handle is inert (further Awaits return the cached outcome)
// and Done's channel must not be reused for a new call.
type Pending struct {
	c      *Conn
	ch     *channel
	oc     *outCall
	k      callKey
	doneCh <-chan struct{}
	pump   chan struct{} // non-nil for multi-fragment calls; closed when the send pump exits
	res    []byte
	err    error
}

// Done returns a channel that is closed when the call has completed
// (result, rejection, timeout, or connection close). It lets a fan-out
// caller select across many pending calls; collect the outcome with Await.
func (p *Pending) Done() <-chan struct{} { return p.doneCh }

// Await blocks until the call completes or ctx is cancelled, then returns
// the result and releases every per-call resource: the call-table entry,
// the retained retransmission frame, the engine's timer slot, and the
// pooled outCall. On cancellation the call fails with ctx.Err() and a
// best-effort cancel packet tells the server the caller has abandoned it.
func (p *Pending) Await(ctx context.Context) ([]byte, error) {
	if p.oc == nil {
		return p.res, p.err
	}
	oc, k, c := p.oc, p.k, p.c
	if cd := ctx.Done(); cd == nil {
		// Non-cancellable context (blocking Call's common case): a plain
		// receive skips selectgo on the fast path.
		<-oc.done
	} else {
		select {
		case <-oc.done:
		case <-cd:
			p.cancelNotify(ctx.Err())
			<-oc.done
		}
	}
	// A multi-fragment send pump may still hold the args slice and the
	// reusable timer; join it before recycling anything.
	if p.pump != nil {
		<-p.pump
	}
	c.unscheduleRetrans(oc, k)
	p.ch.callsMu.Lock()
	if p.ch.calls[k] == oc {
		delete(p.ch.calls, k)
	}
	p.ch.callsMu.Unlock()
	oc.mu.Lock()
	res, err := oc.result, oc.err
	frame := oc.frame
	oc.frame = nil
	retries := oc.retries
	sentAt := oc.sentAt
	iface, proc := oc.iface, oc.proc
	rec := oc.trace
	oc.trace = nil
	oc.mu.Unlock()
	if rec != nil {
		rec.stamp(StageWakeup)
	}
	if frame != nil {
		frame.Release()
	}
	if err == nil {
		c.stats.callsCompleted.Add(1)
		if !sentAt.IsZero() {
			elapsed := time.Since(sentAt)
			if retries == 0 {
				// Karn's rule: only un-retransmitted calls feed the per-peer
				// round-trip estimator.
				p.ch.rttObserve(elapsed)
			}
			if c.trace.sampleN.Load() != 0 {
				// Observability on: fold the call into the per-peer and
				// per-method latency histograms.
				c.observeLatency(p.ch, iface, proc, elapsed)
			}
		}
	}
	putOutCall(oc)
	p.oc = nil
	p.res, p.err = res, err
	return res, err
}

// cancelNotify fails the call with cause and tells the server — best
// effort, one unacknowledged packet — that the caller has abandoned it, so
// the server can drop reassembly state and skip retaining the result.
func (p *Pending) cancelNotify(cause error) {
	oc, k := p.oc, p.k
	oc.mu.Lock()
	already := oc.finished
	if !already {
		oc.finishLocked(k, nil, cause)
	}
	oc.mu.Unlock()
	if already {
		return
	}
	p.c.flight.record(FlightCancelSent, k.activity, k.seq, 0)
	if p.ch.features()&wire.FeatCancel == 0 {
		// The negotiated session says the peer does not understand cancel
		// packets; the local call still fails immediately, the server just
		// wastes one execution (exactly the lost-cancel outcome).
		return
	}
	h := wire.RPCHeader{Type: wire.TypeCancel, Activity: k.activity, Seq: k.seq, FragCount: 1}
	_ = p.c.sendFrame(p.ch.peer, h, nil)
}

// StartCall starts an asynchronous call into the caller-provided handle p,
// so callers that pool their per-call state (core.Client's slots) start a
// call without allocating. It transmits args to dst (spawning a goroutine
// only for multi-fragment sends), registers the call with the
// retransmission engine, and returns immediately; the result is
// collected with p.Await, and lands in resBuf[:0] when it fits. seq must
// increase across calls of the same activity, and an activity may have at
// most one call in flight — fan-out callers use one activity per
// outstanding call (as core.Client's slots do).
func (c *Conn) StartCall(ctx context.Context, dst transport.Addr, activity uint64, seq uint32,
	iface uint32, proc uint16, args []byte, resBuf []byte, p *Pending) error {
	if c.closed.Load() {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err // cancelled before sending anything
	}

	ch := c.channelOf(dst)
	// First contact kicks off session negotiation without waiting: the call
	// proceeds under the legacy-implied capability set until the peer's
	// hello-ack lands. Once the channel leaves the unknown state this is a
	// single atomic load.
	c.ensureSession(ch)

	// Sampled stage tracing plus distributed trace context. One atomic load
	// when tracing is disabled (rec stays nil and the context is never
	// consulted). With tracing on, a call carrying a sampled parent context
	// is always traced — claimFlagged bypasses the local sampler — so every
	// hop of a chained call joins the tree; its span parents onto the
	// caller's ambient span and inherits the trace id.
	rec, traceOn := c.trace.sample()
	var tc wire.TraceCtx
	var parentSpan uint64
	if traceOn {
		if ptc, ok := TraceContextFrom(ctx); ok && ptc.Sampled() {
			if rec == nil {
				rec = c.trace.claimFlagged()
			}
			tc.TraceID = ptc.TraceID
			parentSpan = ptc.SpanID
		}
		if rec != nil {
			if tc.TraceID == 0 {
				tc.TraceID = c.newSpanID()
			}
			tc.SpanID = c.newSpanID()
			tc.Flags = wire.TraceFlagSampled
		}
	}
	// The context rides the wire only on sessions that negotiated FeatTrace
	// (a v0 peer would misparse the prefix as arguments; it gets the legacy
	// FlagTraced bit instead). The prefix is part of the message stream, so
	// fragmentation reserves its bytes in fragment 0's budget.
	inlineTC := rec != nil && ch.features()&wire.FeatTrace != 0
	extra := 0
	if inlineTC {
		extra = wire.TraceCtxLen
	}

	// Fragments are sliced out of args as they are sent; nothing is copied
	// or collected up front.
	maxP := c.maxPayload()
	nfrags := fragCount(len(args), maxP-extra, maxP)
	if nfrags > maxFragments {
		return ErrTooLarge
	}

	// The call's absolute deadline: the earlier of Config.CallTimeout and
	// the context's deadline. The retransmission engine enforces it, so it
	// holds even while retransmissions keep being answered.
	var deadline time.Time
	if c.cfg.CallTimeout > 0 {
		deadline = time.Now().Add(c.cfg.CallTimeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}

	k := callKey{activity, seq}
	oc := getOutCall(k, dst, resBuf)
	oc.mu.Lock()
	oc.deadline = deadline
	oc.iface, oc.proc = iface, proc
	if rec != nil {
		rec.claim(activity, seq)
		rec.setSpan(tc.TraceID, tc.SpanID, parentSpan)
		rec.setMethod(iface, proc)
		rec.stamp(StageStart)
		oc.trace = rec
	}
	oc.mu.Unlock()
	ch.callsMu.Lock()
	ch.calls[k] = oc
	ch.callsMu.Unlock()
	if c.closed.Load() {
		// Close may already have swept this channel; do not strand the call.
		ch.callsMu.Lock()
		if ch.calls[k] == oc {
			delete(ch.calls, k)
		}
		ch.callsMu.Unlock()
		putOutCall(oc)
		return ErrClosed
	}
	now := time.Now()
	ch.touch(now)
	c.stats.callsSent.Add(1)
	*p = Pending{c: c, ch: ch, oc: oc, k: k, doneCh: oc.done}

	// Start retransmission from the adaptive per-peer estimate
	// (Jacobson-style), with the configured interval as both the ceiling
	// and the cold-start value.
	iv := ch.rttInterval(c.cfg.RetransInterval/8, c.cfg.RetransInterval)

	hdr := wire.RPCHeader{
		Type:      wire.TypeCall,
		Activity:  activity,
		Seq:       seq,
		FragCount: uint16(nfrags),
		Interface: iface,
		Proc:      proc,
	}
	if !deadline.IsZero() && ch.features()&wire.FeatBudget != 0 {
		// Advertise the remaining budget (ms, saturating) so a server under
		// admission control can shed this call if it cannot be served in
		// time. Retransmissions re-send the original stamp; the server
		// counts budget from each arrival, so a retried call looks slightly
		// richer than it is — conservative in the right direction (the shed
		// decision errs toward serving). Gated on the negotiated session:
		// a peer that did not advertise FeatBudget never sees the flag.
		ms := time.Until(deadline) / time.Millisecond
		if ms < 1 {
			ms = 1
		}
		if ms > 0xffff {
			ms = 0xffff
		}
		hdr.Hint = uint16(ms)
		hdr.Flags |= wire.FlagBudget
	}
	if inlineTC {
		// Every fragment advertises the prefix; its bytes ride in fragment 0.
		hdr.Flags |= wire.FlagTraceCtx
	}

	last := hdr
	last.FragIndex = uint16(nfrags - 1)
	last.Flags |= wire.FlagLastFrag
	if rec != nil && !inlineTC {
		// Ask the server to stamp its stages for this call too — the
		// legacy path for peers without FeatTrace.
		last.Flags |= wire.FlagTraced
	}

	if nfrags == 1 {
		frame := c.newFrame(last, tc, args)
		sent := now
		if rec != nil {
			rec.stamp(StageSent)
		}
		if err := c.send(dst, frame.Bytes()); err != nil {
			frame.Release()
			ch.callsMu.Lock()
			if ch.calls[k] == oc {
				delete(ch.calls, k)
			}
			ch.callsMu.Unlock()
			putOutCall(oc)
			return err
		}
		c.armRetrans(oc, k, frame, sent, iv, deadline)
		return nil
	}

	// Multi-fragment calls hand the windowed send to a pump goroutine
	// so StartCall still returns immediately; the args slice stays
	// referenced until the pump exits, which Await waits for.
	pump := make(chan struct{})
	p.pump = pump
	go c.pumpCall(oc, ch, k, hdr, last, tc, args, maxP-extra, iv, deadline, pump)
	return nil
}

// armRetrans retains the final call fragment's frame and schedules the
// retransmission engine for it, clamping the first check to the deadline.
func (c *Conn) armRetrans(oc *outCall, k callKey, frame *buffer.Frame, sent time.Time, iv time.Duration, deadline time.Time) {
	oc.mu.Lock()
	if oc.finished || oc.key != k {
		if oc.key == k {
			// The result beat us here; Await still times the call from sent.
			oc.sentAt = sent
		}
		oc.mu.Unlock()
		frame.Release()
		return
	}
	oc.frame = frame
	oc.sentAt = sent
	oc.interval = iv
	oc.nextAt = sent.Add(iv)
	at := oc.nextAt
	if !deadline.IsZero() && deadline.Before(at) {
		at = deadline
	}
	oc.mu.Unlock()
	c.scheduleRetrans(oc, k, at)
}

// pumpCall drives a multi-fragment call's windowed send off the caller's
// goroutine, then arms the retransmission engine for the final fragment,
// last. Fragment 0 carries the first `first` bytes of args and every later
// one up to maxPayload. It exits promptly if the call completes or is
// cancelled mid-stream (sendWindowed watches oc.done).
func (c *Conn) pumpCall(oc *outCall, ch *channel, k callKey, hdr, last wire.RPCHeader, tc wire.TraceCtx,
	args []byte, first int, iv time.Duration, deadline time.Time, pump chan struct{}) {
	defer close(pump)
	s := fragStream{dst: ch.peer, hdr: hdr, tc: tc, msg: args, first: first, n: last.FragIndex,
		acks: oc.ackCh, timer: oc.timer, stop: oc.done, deadline: deadline}
	args, err := c.sendWindowed(&s)
	oc.timer = s.timer
	if err != nil {
		oc.finish(k, nil, err)
		return
	}
	oc.mu.Lock()
	rec := oc.trace
	oc.mu.Unlock()
	frame := c.newFrame(last, tc, args)
	sent := time.Now()
	if rec != nil {
		rec.stamp(StageSent)
	}
	if err := c.send(ch.peer, frame.Bytes()); err != nil {
		frame.Release()
		oc.finish(k, nil, err)
		return
	}
	c.armRetrans(oc, k, frame, sent, iv, deadline)
}

// fragWindow is how many non-final fragments sendWindowed puts in flight
// before it waits for an acknowledgement. 16 × 1440 B is ~23 KB of payload,
// a tenth of Linux's 212,992 B default socket receive buffer, so even a
// 256-fragment message cannot overrun a receiver whose reading goroutine is
// descheduled (as at GOMAXPROCS 1), as sending every fragment back to back
// could.
const fragWindow = 16

// fragStream is one message's non-final fragments, for sendWindowed.
type fragStream struct {
	dst      transport.Addr
	hdr      wire.RPCHeader // every fragment's header but FragIndex and FlagPleaseAck
	tc       wire.TraceCtx  // prefixes fragment 0 when hdr carries FlagTraceCtx
	msg      []byte         // fragment 0 carries its first `first` bytes, later ones maxPayload
	first    int
	n        uint16 // non-final fragments
	acks     <-chan fragAck
	timer    *time.Timer     // reused if non-nil; left stopped and drained for the next stream
	stop     <-chan struct{} // caller: the call's done channel; nil on the server
	deadline time.Time       // caller: the call's absolute deadline; zero = none
	act      *serverAct      // server: checked for abandonment on each timeout
}

// sendWindowed is the go-back-N sender of both directions' multi-fragment
// messages. It sends up to fragWindow fragments back to back, FlagPleaseAck
// on the last only, and waits for that fragment's ack — cumulative, since a
// receiver acks it only once everything before it is stored — before the
// next window. A window unacknowledged after the retransmission interval is
// resent whole, the interval doubling up to 8×, at most MaxRetries times.
// It returns the bytes left for the final fragment, which the caller sends
// and retains for the retransmission engine. An error means the stream
// stopped: the call finished or timed out, or the server's result is no
// longer wanted.
func (c *Conn) sendWindowed(s *fragStream) ([]byte, error) {
	if s.timer == nil {
		s.timer = time.NewTimer(c.cfg.RetransInterval)
	}
	defer stopTimer(s.timer)
	k := callKey{s.hdr.Activity, s.hdr.Seq}
	msg, size := s.msg, s.first
	for lo := uint16(0); lo < s.n; {
		hi := min(lo+fragWindow, s.n)
		interval := c.cfg.RetransInterval
		for retries := 0; ; {
			rest, n := msg, size
			for i := lo; i < hi; i++ {
				h := s.hdr
				h.FragIndex = i
				if i == hi-1 {
					h.Flags |= wire.FlagPleaseAck
				}
				f := c.newFrame(h, s.tc, rest[:n])
				err := c.send(s.dst, f.Bytes())
				f.Release()
				if err != nil {
					return nil, err
				}
				rest, n = rest[n:], c.maxPayload()
			}
			acked, err := c.awaitAck(s, k, hi-1, interval)
			if err != nil {
				return nil, err
			}
			if acked {
				msg, size = rest, n
				break
			}
			if retries++; retries > c.cfg.MaxRetries {
				return nil, ErrTimeout
			}
			c.stats.retransmits.Add(1)
			c.noteRetransmit(k, retries, int64(interval), false)
			if interval < 8*c.cfg.RetransInterval {
				interval *= 2
			}
		}
		lo = hi
	}
	return msg, nil
}

// awaitAck waits up to interval, clamped to the deadline, for the ack of
// fragment idx. It reports false with no error when the interval ran out
// and the window should be resent.
func (c *Conn) awaitAck(s *fragStream, k callKey, idx uint16, interval time.Duration) (bool, error) {
	if !s.deadline.IsZero() {
		interval = min(interval, time.Until(s.deadline)) // past it, the timer fires at once
	}
	stopTimer(s.timer)
	s.timer.Reset(interval)
	for {
		select {
		case <-s.stop:
			// The call already finished (rejected, cancelled, closed) with
			// its own error; this one goes nowhere.
			return false, ErrClosed
		case got := <-s.acks:
			if got.activity == k.activity && got.seq == k.seq && got.idx == idx {
				return true, nil
			}
			// Stale ack of an earlier window or call: keep waiting.
		case <-s.timer.C:
			if !s.deadline.IsZero() && !time.Now().Before(s.deadline) {
				return false, ErrTimeout
			}
			if act := s.act; act != nil {
				act.ch.actsMu.Lock()
				gone := act.abandoned || act.lastSeq != k.seq || act.ch.evicted
				act.ch.actsMu.Unlock()
				if gone {
					return false, ErrClosed
				}
			}
			return false, nil
		}
	}
}

// Ping probes a peer's liveness.
func (c *Conn) Ping(dst transport.Addr, timeout time.Duration) error {
	if c.closed.Load() {
		return ErrClosed
	}
	c.pingsMu.Lock()
	c.pingSeq++
	seq := c.pingSeq
	ch := make(chan struct{})
	c.pings[seq] = ch
	c.pingsMu.Unlock()
	defer func() {
		c.pingsMu.Lock()
		delete(c.pings, seq)
		c.pingsMu.Unlock()
	}()

	h := wire.RPCHeader{Type: wire.TypeProbe, Seq: seq, FragCount: 1}
	deadline := time.Now().Add(timeout)
	interval := c.cfg.RetransInterval
	// One reusable timer across retries (time.After here used to leak a
	// timer per iteration until it fired).
	timer := time.NewTimer(interval)
	defer timer.Stop()
	for {
		if err := c.sendFrame(dst, h, nil); err != nil {
			return err
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return ErrTimeout
		}
		wait := interval
		if wait > remain {
			wait = remain
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-ch:
			return nil
		case <-timer.C:
			if time.Now().After(deadline) {
				return ErrTimeout
			}
		}
	}
}
