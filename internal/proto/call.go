package proto

import (
	"context"
	"sync"
	"time"

	"fireflyrpc/internal/buffer"
	"fireflyrpc/internal/clock"
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
	// Only an exchange of one packet each way samples the path: a
	// fragmented call's time includes its windows or its result stream,
	// which would lift the interval of the small calls after it.
	onePacket := !oc.fragged && oc.resCount == 1
	iface, proc := oc.iface, oc.proc
	rec := oc.trace
	oc.trace = nil
	oc.mu.Unlock()
	if rec != nil {
		rec.stamp(StageWakeup, c.traceNow())
	}
	if frame != nil {
		frame.Release()
	}
	if err == nil {
		c.stats.callsCompleted.Add(1)
		if !sentAt.IsZero() {
			elapsed := c.clk.Now().Sub(sentAt)
			if retries == 0 && onePacket {
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

// cancelNotify fails the call with cause and tells the server that the
// caller has abandoned it (sendCancel).
func (p *Pending) cancelNotify(cause error) {
	oc, k := p.oc, p.k
	oc.mu.Lock()
	already := oc.finished
	if !already {
		oc.finishLocked(k, nil, cause)
	}
	oc.mu.Unlock()
	if !already {
		p.c.sendCancel(p.ch, k)
	}
}

// sendCancel tells ch's peer — best effort, one unacknowledged packet —
// that the caller has abandoned call k, so the server can drop reassembly
// state, skip the call if it is still queued, and not retain the result.
func (c *Conn) sendCancel(ch *channel, k callKey) {
	c.flight.record(FlightCancelSent, k.activity, k.seq, 0)
	if ch.features()&wire.FeatCancel == 0 {
		// The negotiated session says the peer does not understand cancel
		// packets; the local call still fails immediately, the server just
		// wastes one execution (exactly the lost-cancel outcome).
		return
	}
	h := wire.RPCHeader{Type: wire.TypeCancel, Activity: k.activity, Seq: k.seq, FragCount: 1}
	_ = c.sendFrame(ch.peer, h, nil)
}

// StartCall starts an asynchronous call into the caller-provided handle p,
// so callers that pool their per-call state (core.Client's slots) start a
// call without allocating. It transmits args to dst (a multi-fragment call
// its first window of fragments), registers the call with the
// retransmission engine, and returns without waiting; the result is
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
		deadline = c.clk.Now().Add(c.cfg.CallTimeout)
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
		rec.stamp(StageStart, c.traceNow())
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
	now := c.clk.Now()
	ch.touch(now)
	c.stats.callsSent.Add(1)
	*p = Pending{c: c, ch: ch, oc: oc, k: k, doneCh: oc.done}

	hdr := wire.RPCHeader{
		Type:      wire.TypeCall,
		Activity:  activity,
		Seq:       seq,
		FragIndex: uint16(nfrags - 1),
		FragCount: uint16(nfrags),
		Flags:     wire.FlagLastFrag,
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
		ms := deadline.Sub(c.clk.Now()) / time.Millisecond
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
	if rec != nil && !inlineTC {
		// Ask the server to stamp its stages for this call too — the
		// legacy path for peers without FeatTrace. Only the final fragment
		// carries the flag.
		hdr.Flags |= wire.FlagTraced
	}

	// A single-fragment call's retransmissions start from the adaptive
	// per-peer estimate (Jacobson-style), with the configured interval as
	// both the ceiling and the cold-start value. A multi-fragment call sends
	// its first window, and acks send the rest (onAck); its windows are
	// paced by the configured interval. args stays referenced until the
	// final fragment is out or the call ends.
	oc.mu.Lock()
	oc.out = fragMsg{hdr: hdr, tc: tc, msg: args, first: maxP - extra}
	var err error
	if nfrags == 1 {
		oc.interval = ch.rttInterval(c.cfg.RetransInterval/8, c.cfg.RetransInterval)
		err = c.sendFinalLocked(oc, now)
	} else {
		oc.interval = c.cfg.RetransInterval
		oc.fragged = true
		err = c.sendWindow(dst, &oc.out)
	}
	oc.nextAt = now.Add(oc.interval)
	at := oc.due()
	oc.mu.Unlock()
	if err != nil {
		ch.callsMu.Lock()
		if ch.calls[k] == oc {
			delete(ch.calls, k)
		}
		ch.callsMu.Unlock()
		putOutCall(oc)
		return err
	}
	c.scheduleRetrans(oc, k, at)
	return nil
}

// sendFinalLocked sends the call's final fragment and retains it for the
// retransmission engine (oc.mu held).
func (c *Conn) sendFinalLocked(oc *outCall, now time.Time) error {
	frame := c.finalFrame(&oc.out)
	oc.out = fragMsg{}
	if oc.trace != nil {
		oc.trace.stamp(StageSent, c.traceNow())
	}
	if err := c.send(oc.dst, frame.Bytes()); err != nil {
		frame.Release()
		return err
	}
	oc.frame, oc.sentAt = frame, now
	return nil
}

// fragWindow is how many non-final fragments a sender puts in flight before
// it waits for an acknowledgement. 16 × 1440 B is ~23 KB of payload, a
// tenth of Linux's 212,992 B default socket receive buffer, so even a
// 256-fragment message cannot overrun a receiver whose reading goroutine is
// descheduled (as at GOMAXPROCS 1), as sending every fragment back to back
// could.
const fragWindow = 16

// fragMsg is the send state of a message, kept by its outCall or
// serverAct: fragments are sliced out of msg as they are sent, fragment 0
// its first `first` bytes and every later one up to maxPayload, and every
// fragment before base is acknowledged. No goroutine or timer belongs to
// it: acks move it on from the receive path, and the caller's
// retransmission engine resends a stalled window (see onAck, fireRetrans
// and onCallFrag).
type fragMsg struct {
	hdr   wire.RPCHeader // the final fragment's header but FragIndex
	tc    wire.TraceCtx  // prefixes fragment 0 when hdr carries FlagTraceCtx
	msg   []byte         // nil when no message is in flight
	first int
	base  uint16
}

// end is one past the window's last fragment. The final fragment is never
// in a window: it leaves alone once all before it are acknowledged.
func (m *fragMsg) end() uint16 { return min(m.base+fragWindow, m.hdr.FragCount-1) }

// fragment returns fragment i's bytes.
func (m *fragMsg) fragment(i uint16, maxP int) []byte {
	if i == 0 {
		return m.msg[:min(m.first, len(m.msg))]
	}
	lo := m.first + int(i-1)*maxP
	return m.msg[lo:min(lo+maxP, len(m.msg))]
}

// ack applies a cumulative acknowledgement of fragment idx — the receiver
// holds every fragment up to it — and reports whether the window moved. An
// ack below base is stale and one at or past end acknowledges nothing in
// flight; both are ignored. One inside the window is a receiver's re-ack
// of a flagged fragment that arrived past a gap, so the window restarts at
// the gap.
func (m *fragMsg) ack(idx uint16) bool {
	if m.msg == nil || idx < m.base || idx >= m.end() {
		return false
	}
	m.base = idx + 1
	return true
}

// window is the storage a fragment window is built in: its frames sit
// back to back in data, and frames is the batch naming them.
type window struct {
	data   []byte
	frames [fragWindow]transport.Frame
}

// windows is the process's free list of window storage. A sync.Pool would
// not do: a window holds fragWindow frames at once, and refilling a pool
// the collector emptied would cost that many allocations after every GC.
// Each window's data is mapped outside the collected heap (buffer.Map) and
// kept for the life of the process, so the list holds as many windows as
// were ever being sent at once.
var windows struct {
	sync.Mutex
	free []*window
}

func getWindow() *window {
	windows.Lock()
	defer windows.Unlock()
	n := len(windows.free)
	if n == 0 {
		return &window{data: buffer.Map(fragWindow * wire.MaxPacketLen)}
	}
	w := windows.free[n-1]
	windows.free = windows.free[:n-1]
	return w
}

func putWindow(w *window) {
	windows.Lock()
	windows.free = append(windows.free, w)
	windows.Unlock()
}

// sendWindow sends the window's fragments back to back, with
// FlagPleaseAck on the last one only: in one SendBatch call where the
// transport takes batches and the send queue is not engaged (per-frame
// UDP turns it into one GSO message), one send per fragment otherwise.
func (c *Conn) sendWindow(dst transport.Addr, m *fragMsg) error {
	maxP, end := c.maxPayload(), m.end()
	w := getWindow()
	defer putWindow(w)
	batch, off := w.frames[:0], 0
	for i := m.base; i < end; i++ {
		h := m.hdr
		h.FragIndex = i
		h.Flags &^= wire.FlagLastFrag | wire.FlagTraced
		if i == end-1 {
			h.Flags |= wire.FlagPleaseAck
		}
		n := putFrame(w.data[off:], h, m.tc, m.fragment(i, maxP))
		batch = append(batch, transport.Frame{Dst: dst, Data: w.data[off : off+n]})
		off += n
	}
	if c.bs != nil {
		_, err := c.bs.SendBatch(batch)
		return err
	}
	for _, f := range batch {
		if err := c.send(dst, f.Data); err != nil {
			return err
		}
	}
	return nil
}

// finalFrame builds the message's final fragment, for a sender whose every
// other fragment is acknowledged.
func (c *Conn) finalFrame(m *fragMsg) *buffer.Frame {
	h := m.hdr
	h.FragIndex = m.base
	return c.newFrame(h, m.tc, m.fragment(m.base, c.maxPayload()))
}

// Ping probes a peer's liveness, resending the probe every
// RetransInterval until a reply arrives or timeout runs out.
func (c *Conn) Ping(dst transport.Addr, timeout time.Duration) error {
	if c.closed.Load() {
		return ErrClosed
	}
	c.pingsMu.Lock()
	c.pingSeq++
	seq := c.pingSeq
	reply := make(chan struct{})
	c.pings[seq] = reply
	c.pingsMu.Unlock()
	defer func() {
		c.pingsMu.Lock()
		delete(c.pings, seq)
		c.pingsMu.Unlock()
	}()

	// Both timers are armed before the first probe leaves.
	expired := make(chan struct{})
	deadline := c.clk.AfterFunc(timeout, func() { close(expired) })
	defer deadline.Stop()
	h := wire.RPCHeader{Type: wire.TypeProbe, Seq: seq, FragCount: 1}
	stopResends := clock.Every(c.clk, c.cfg.RetransInterval, func() { _ = c.sendFrame(dst, h, nil) })
	defer stopResends()
	if err := c.sendFrame(dst, h, nil); err != nil {
		return err
	}
	select {
	case <-reply:
		return nil
	case <-expired:
		return ErrTimeout
	}
}
