package proto

import (
	"time"

	"fireflyrpc/internal/buffer"
	"fireflyrpc/internal/transport"
	"fireflyrpc/internal/wire"
)

// onFrame is the transport's receive callback — the real-stack analogue of
// the Firefly's Ethernet interrupt routine: validate, demultiplex to the
// peer's channel, and hand the packet to the waiting party directly. The
// payload slice is only valid for the duration of the call; anything kept
// longer is copied into recycled per-call buffers.
func (c *Conn) onFrame(src transport.Addr, frame []byte) {
	hdr, payload, err := wire.UnmarshalRPC(frame)
	if err != nil {
		c.stats.badFrames.Add(1)
		return
	}
	switch hdr.Type {
	case wire.TypeCall:
		c.onCallFrag(src, hdr, payload)
	case wire.TypeResult:
		c.onResultFrag(src, hdr, payload)
	case wire.TypeAck:
		c.onAck(src, hdr)
	case wire.TypeReject:
		c.onReject(src, hdr)
	case wire.TypeCancel:
		c.onCancel(src, hdr)
	case wire.TypeHello:
		c.onHello(src, hdr, payload)
	case wire.TypeHelloAck:
		c.onHelloAck(src, hdr, payload)
	case wire.TypeProbe:
		c.stats.probes.Add(1)
		reply := wire.RPCHeader{Type: wire.TypeProbeReply, Seq: hdr.Seq, FragCount: 1}
		_ = c.sendFrame(src, reply, nil)
	case wire.TypeProbeReply:
		c.pingsMu.Lock()
		ch := c.pings[hdr.Seq]
		delete(c.pings, hdr.Seq)
		c.pingsMu.Unlock()
		if ch != nil {
			close(ch)
		}
	default:
		c.stats.badFrames.Add(1)
	}
}

// lookupCall finds the outstanding call k in src's channel, if both exist.
// Receive paths that only complete existing state use lookupChannel, so
// stray packets from unknown peers never populate the peer map.
func (c *Conn) lookupCall(src transport.Addr, k callKey) (*channel, *outCall) {
	ch := c.lookupChannel(src)
	if ch == nil {
		return nil, nil
	}
	ch.callsMu.Lock()
	oc := ch.calls[k]
	ch.callsMu.Unlock()
	return ch, oc
}

// sendAck acknowledges a fragment. Acks are sent inline from whatever
// goroutine noticed the need (never holding a channel lock): they are one
// bounded transport send, and spawning a goroutine per ack — as the
// multi-fragment path once did — costs an allocation and a scheduler trip
// per packet.
func (c *Conn) sendAck(dst transport.Addr, activity uint64, seq uint32, frag uint16, ofResult bool) {
	h := wire.RPCHeader{
		Type:      wire.TypeAck,
		Activity:  activity,
		Seq:       seq,
		FragIndex: frag,
		FragCount: 1,
	}
	if ofResult {
		h.Flags |= flagAckResult
	}
	c.stats.acksSent.Add(1)
	_ = c.sendFrame(dst, h, nil)
}

// traceServerRecv claims a server-side stage record for a traced call —
// legacy FlagTraced or a sampled wire.TraceCtx prefix — that has just become
// ready to execute, stamping its arrival (recvNs, captured at frame entry)
// and its hand-off to the dispatch queue. With a trace context, the record
// adopts the caller's trace and span ids, so both halves of the call join
// into one span. The record rides the execReq to the worker for the
// remaining stages.
func (c *Conn) traceServerRecv(req *execReq, recvNs int64) {
	if req.hdr.Flags&wire.FlagTraced == 0 && !req.tc.Sampled() {
		return
	}
	rec := c.trace.claimFlagged()
	if rec == nil {
		return
	}
	rec.claim(req.hdr.Activity, req.hdr.Seq)
	rec.setSpan(req.tc.TraceID, req.tc.SpanID, 0)
	rec.setMethod(req.hdr.Interface, req.hdr.Proc)
	rec.stamp(StageSrvRecv, recvNs)
	rec.stamp(StageSrvQueued, c.traceNow())
	req.trace = rec
}

// onCallFrag handles an arriving call fragment on the server side. All the
// duplicate-suppression state lives in the calling peer's channel.
func (c *Conn) onCallFrag(src transport.Addr, hdr wire.RPCHeader, payload []byte) {
	// Traced calls stamp their arrival before any locking; untraced calls
	// pay one branch on an already-loaded header byte.
	var recvNs int64
	if hdr.Flags&(wire.FlagTraced|wire.FlagTraceCtx) != 0 {
		recvNs = c.traceNow()
	}
	if c.handler == nil || c.closed.Load() {
		c.stats.rejects.Add(1)
		rej := wire.RPCHeader{
			Type: wire.TypeReject, Activity: hdr.Activity, Seq: hdr.Seq, FragCount: 1,
		}
		_ = c.sendFrame(src, rej, nil)
		return
	}
	if hdr.FragCount == 0 || hdr.FragCount > maxFragments {
		c.stats.badFrames.Add(1)
		return
	}
	// A FeatTrace peer ships the distributed trace context as a message
	// prefix riding in fragment 0; strip it before the payload joins
	// reassembly.
	var tc wire.TraceCtx
	if hdr.Flags&wire.FlagTraceCtx != 0 && hdr.FragIndex == 0 {
		parsed, perr := wire.UnmarshalTraceCtx(payload)
		if perr != nil {
			c.stats.badFrames.Add(1)
			return
		}
		tc = parsed
		payload = payload[wire.TraceCtxLen:]
	}
	ch := c.channelOf(src)
	ch.touch(c.clk.Now())
	ch.actsMu.Lock()
	act := ch.acts[hdr.Activity]
	if act == nil {
		act = &serverAct{activity: hdr.Activity, src: src, ch: ch}
		ch.acts[hdr.Activity] = act
	}

	switch {
	case hdr.Seq < act.lastSeq:
		// A fragment of a superseded call: drop.
		ch.actsMu.Unlock()
		c.stats.staleDrops.Add(1)
		return

	case hdr.Seq == act.lastSeq && act.lastSeq != 0:
		switch act.phase {
		case phaseReceiving:
			if tc.Valid() {
				act.tc = tc
			}
			ack, req, run := c.storeFragLocked(act, hdr, payload)
			if run {
				ch.executing.Add(1)
			}
			ch.actsMu.Unlock()
			if ack >= 0 {
				c.sendAck(src, hdr.Activity, hdr.Seq, uint16(ack), false)
			}
			if run {
				if recvNs != 0 {
					c.traceServerRecv(&req, recvNs)
				}
				c.admit.Offer(req, req.budgetNs)
			}
			return
		case phaseExecuting:
			ch.actsMu.Unlock()
			c.stats.dupCalls.Add(1)
			c.stats.inProgressAcks.Add(1)
			c.sendAck(src, hdr.Activity, hdr.Seq, ackInProgress, false)
			return
		default: // phaseDone: answer from the result stream or the retained frame.
			// The send happens under actsMu: the retained frame lives in a
			// pooled buffer that the activity's next call releases, and a
			// stream's result may alias the argument buffer it holds, so
			// neither may be recycled mid-transmission. Duplicates are rare;
			// the fast path never reaches here.
			c.stats.dupCalls.Add(1)
			switch {
			case act.res.msg != nil:
				// Mid-stream, the caller's retransmitted final fragment asks
				// for the unacknowledged window: the server has no timer.
				if hdr.Flags&wire.FlagLastFrag != 0 {
					c.stats.resultRetrans.Add(1)
					_ = c.sendWindow(act.src, &act.res)
				}
			case act.lastResultFrame != nil:
				c.stats.resultRetrans.Add(1)
				_ = c.send(src, act.lastResultFrame.Bytes())
			}
			ch.actsMu.Unlock()
			return
		}

	default: // a new call: implicitly acknowledges the previous result
		act.endStreamLocked()
		act.lastSeq = hdr.Seq
		act.phase = phaseReceiving
		act.abandoned = false
		act.count = hdr.FragCount
		act.hdr = hdr
		act.tc = tc // resets any stale context from the previous call
		if act.lastResultFrame != nil {
			// Recycle the retained result buffer — the paper's on-the-fly
			// replacement: the arrival of the next call frees the packet.
			act.lastResultFrame.Release()
			act.lastResultFrame = nil
		}
		act.next = 0
		ack, req, run := c.storeFragLocked(act, hdr, payload)
		if run {
			ch.executing.Add(1)
		}
		ch.actsMu.Unlock()
		if ack >= 0 {
			c.sendAck(src, hdr.Activity, hdr.Seq, uint16(ack), false)
		}
		if run {
			if recvNs != 0 {
				c.traceServerRecv(&req, recvNs)
			}
			c.admit.Offer(req, req.budgetNs)
		}
		return
	}
}

// storeFragLocked appends a call fragment to the activity's argument buffer
// (the channel's actsMu held) and, when the call is complete, hands the
// buffer to an execReq so the worker never touches shared state. It reports
// the fragment index to acknowledge (-1 for none) and whether the call is
// ready to execute; the caller performs both actions after releasing the
// lock (and bumps the channel's executing count under it when run is true).
//
// Fragments arrive in order: the caller sends each window in index order
// and the next one only after the ack of this one's last fragment, which
// is sent only once every fragment up to it is stored here. Anything below
// next is therefore a late duplicate, to be re-acked in case the first ack
// was lost. Anything above it follows a gap — ordinary loss inside a
// window — and is dropped, counted in BadFrames; if it asks for an ack,
// the last fragment stored is re-acked, which tells the caller to resend
// from the gap at once.
func (c *Conn) storeFragLocked(act *serverAct, hdr wire.RPCHeader, payload []byte) (ack int, req execReq, run bool) {
	ack = -1
	flagged := hdr.Flags&wire.FlagPleaseAck != 0 && hdr.Flags&wire.FlagLastFrag == 0
	switch {
	case hdr.FragCount != act.count:
		c.stats.badFrames.Add(1)
		return -1, execReq{}, false
	case hdr.FragIndex > act.next:
		c.stats.badFrames.Add(1)
		if flagged && act.next > 0 {
			ack = int(act.next) - 1
		}
		return ack, execReq{}, false
	case flagged:
		ack = int(hdr.FragIndex)
	}
	if hdr.FragIndex < act.next {
		c.stats.dupFrags.Add(1)
		return ack, execReq{}, false
	}
	if act.next == 0 {
		act.argBuf = act.argBuf[:0]
	}
	// Plain append, not a buffer presized from FragCount: the buffer is
	// recycled, so growth happens on an activity's first large call only,
	// and it stays bounded by the bytes that have actually arrived.
	act.argBuf = append(act.argBuf, payload...)
	act.next++
	if act.next < act.count {
		return ack, execReq{}, false
	}
	args := act.argBuf
	act.argBuf = nil // the worker owns it until execution finishes
	act.phase = phaseExecuting
	return ack, execReq{act: act, hdr: hdr, tc: act.tc, args: args, budgetNs: callBudgetNs(hdr)}, true
}

// callBudgetNs reads the caller's remaining deadline budget from a call
// header, if it advertised one.
func callBudgetNs(hdr wire.RPCHeader) int64 {
	if hdr.Flags&wire.FlagBudget == 0 {
		return 0
	}
	return int64(hdr.Hint) * int64(time.Millisecond)
}

// execute runs one complete call on a worker goroutine and sends the
// result. The request owns the reassembled arguments, so the handler runs
// without holding any channel lock. A call its caller cancelled while it
// waited in the queue does not run at all; ran reports whether the handler
// ran.
func (c *Conn) execute(req execReq) (ran bool) {
	act, hdr := req.act, req.hdr
	ch := act.ch
	defer ch.executing.Add(-1)
	if req.trace != nil {
		req.trace.stamp(StageSrvDispatch, c.traceNow())
	}
	var final *buffer.Frame // completes the call; sent and retained below
	if ran = !act.abandonedCall(hdr.Seq); ran {
		result, err := c.handler(act.src, req.tc, hdr.Interface, hdr.Proc, req.args)
		c.stats.callsServed.Add(1)
		if req.trace != nil {
			req.trace.stamp(StageSrvDone, c.traceNow())
		}
		// No touch here: every inbound frame (including the retransmissions
		// a waiting caller sends during a long handler) already stamps the
		// channel in onCallFrag, and the executing counter blocks eviction
		// while the handler runs.
		switch {
		case act.abandonedCall(hdr.Seq):
			// The caller cancelled this call while it executed: nobody is
			// waiting, so skip the result send entirely and leave nothing
			// retained. A new call on the activity resets the state.
		case err != nil:
			c.stats.rejects.Add(1)
			rej := wire.RPCHeader{
				Type: wire.TypeReject, Activity: hdr.Activity, Seq: hdr.Seq,
				FragCount: 1, Interface: hdr.Interface, Proc: hdr.Proc,
			}
			final = c.newFrame(rej, wire.TraceCtx{}, nil)
		default:
			final = c.sendResult(&req, result)
		}
	}

	// Return the argument buffer for the next call's reuse before the final
	// frame goes out: the caller's next call can arrive the moment it does,
	// and would otherwise find the buffer still out and grow a new one.
	// Every result byte is in a frame by now, so a result that aliases the
	// arguments is safe; a result stream took the buffer instead. If a
	// newer call already took another (an overlap only a timed-out caller
	// can produce), the older buffer is dropped.
	if req.args != nil {
		ch.actsMu.Lock()
		if act.argBuf == nil && !ch.evicted {
			act.argBuf = req.args[:0]
		}
		ch.actsMu.Unlock()
	}
	if req.trace != nil {
		req.trace.stamp(StageSrvResultSent, c.traceNow())
	}
	if final != nil {
		_ = c.send(act.src, final.Bytes())
	}
	c.retainResult(act, hdr.Seq, final)
	return ran
}

// abandonedCall reports whether the caller cancelled call seq of the
// activity.
func (act *serverAct) abandonedCall(seq uint32) bool {
	act.ch.actsMu.Lock()
	defer act.ch.actsMu.Unlock()
	return act.abandoned && act.lastSeq == seq
}

// retainResult completes call seq on the activity and parks its final
// frame in the call-table slot for retransmission, releasing its
// predecessor. With no frame the call completes with nothing to
// retransmit: either its result streams, and streamLocked retains the
// final fragment when the stream ends, or the call was abandoned or
// superseded, and the caller's retransmissions go unanswered until its
// retry budget runs out. If a newer call has superseded seq, the caller
// abandoned the call, or the channel was evicted while the handler ran,
// the frame is released instead: nobody may (or will) retransmit it.
func (c *Conn) retainResult(act *serverAct, seq uint32, f *buffer.Frame) {
	ch := act.ch
	ch.actsMu.Lock()
	if act.lastSeq == seq && act.phase == phaseExecuting {
		act.phase = phaseDone
	}
	switch {
	case f == nil:
	case act.lastSeq == seq && !act.abandoned && !ch.evicted:
		if act.lastResultFrame != nil {
			act.lastResultFrame.Release()
		}
		act.lastResultFrame = f
	default:
		f.Release()
	}
	ch.actsMu.Unlock()
}

// sendResult ships a call's result. One that fits a single packet, or the
// reject that stands in for one too large to ship, is returned built but
// unsent, for execute to send and retain. A larger one becomes the
// activity's result stream, unless the call was abandoned or superseded
// meanwhile: sendResult sends its first window and returns nil, and the
// stream takes req's argument buffer and trace record until it ends.
func (c *Conn) sendResult(req *execReq, result []byte) *buffer.Frame {
	act, call := req.act, req.hdr
	maxP := c.maxPayload()
	nfrags := fragCount(len(result), maxP, maxP)
	if nfrags > maxFragments {
		// Result too large to ship: reject so the caller fails cleanly.
		rej := wire.RPCHeader{
			Type: wire.TypeReject, Activity: call.Activity, Seq: call.Seq, FragCount: 1,
		}
		return c.newFrame(rej, wire.TraceCtx{}, nil)
	}
	hdr := wire.RPCHeader{
		Type:      wire.TypeResult,
		Activity:  call.Activity,
		Seq:       call.Seq,
		FragIndex: uint16(nfrags - 1),
		FragCount: uint16(nfrags),
		Flags:     wire.FlagLastFrag,
		Interface: call.Interface,
		Proc:      call.Proc,
	}
	if nfrags == 1 {
		return c.newFrame(hdr, wire.TraceCtx{}, result)
	}
	ch := act.ch
	ch.actsMu.Lock()
	if act.lastSeq == call.Seq && !act.abandoned && !ch.evicted {
		act.phase = phaseDone // a retransmitted call now asks for a window
		act.res = fragMsg{hdr: hdr, msg: result, first: maxP}
		act.resArgs, act.resTrace = req.args, req.trace
		req.args, req.trace = nil, nil
		c.streamLocked(act)
	}
	ch.actsMu.Unlock()
	return nil
}

// streamLocked moves the activity's result stream on (the channel's actsMu
// held): it sends the window from the first unacknowledged fragment or,
// once every fragment before the final one is acknowledged, ends the
// stream, sending the final fragment and retaining it as a single-packet
// result is retained.
func (c *Conn) streamLocked(act *serverAct) {
	if act.res.base < act.res.hdr.FragCount-1 {
		_ = c.sendWindow(act.src, &act.res)
		return
	}
	f := c.finalFrame(&act.res)
	rec := act.resTrace
	act.endStreamLocked()
	if rec != nil {
		rec.stamp(StageSrvResultSent, c.traceNow())
	}
	_ = c.send(act.src, f.Bytes())
	act.lastResultFrame = f
}

// endStreamLocked drops the activity's result stream, if it has one (the
// channel's actsMu held), and returns the argument buffer the stream kept
// for the next call's reuse, unless a newer call already took another or
// the channel is evicted.
func (act *serverAct) endStreamLocked() {
	if act.resArgs != nil && act.argBuf == nil && !act.ch.evicted {
		act.argBuf = act.resArgs[:0]
	}
	act.res, act.resArgs, act.resTrace = fragMsg{}, nil, nil
}

// onResultFrag handles an arriving result fragment on the caller side.
func (c *Conn) onResultFrag(src transport.Addr, hdr wire.RPCHeader, payload []byte) {
	k := callKey{hdr.Activity, hdr.Seq}
	_, oc := c.lookupCall(src, k)
	needAck := hdr.Flags&wire.FlagPleaseAck != 0 && hdr.Flags&wire.FlagLastFrag == 0
	if oc == nil {
		// Late duplicate of a completed call. Re-ack a flagged fragment
		// so a server whose window ack was lost can finish its stream.
		c.stats.staleDrops.Add(1)
		if needAck {
			c.sendAck(src, hdr.Activity, hdr.Seq, hdr.FragIndex, true)
		}
		return
	}
	// No touch here: StartCall stamped the channel when this call left, and
	// a registered call blocks eviction regardless of the stamp's age.

	complete := false
	oc.mu.Lock()
	if oc.finished || oc.key != k {
		oc.mu.Unlock()
		return
	}
	// The result arrives in order, exactly as a call does at the server
	// (see storeFragLocked): fragments append straight to the
	// caller-supplied buffer, which core.Client keeps across calls, and one
	// past a gap — a loss inside the server's window — is a bad frame,
	// dropped; if it asks for an ack, the last fragment stored is re-acked
	// so the server resends from the gap at once.
	ackIdx := hdr.FragIndex
	switch {
	case hdr.FragCount == 0 || hdr.FragCount > maxFragments ||
		(oc.resNext > 0 && hdr.FragCount != oc.resCount):
		c.stats.badFrames.Add(1)
		needAck = false
	case hdr.FragIndex > oc.resNext:
		c.stats.badFrames.Add(1)
		needAck = needAck && oc.resNext > 0
		ackIdx = oc.resNext - 1
	case hdr.FragIndex < oc.resNext:
		c.stats.dupFrags.Add(1)
	default:
		if oc.resNext == 0 {
			oc.resCount = hdr.FragCount
			oc.resBuf = oc.resBuf[:0]
		}
		oc.resBuf = append(oc.resBuf, payload...)
		oc.resNext++
		complete = oc.resNext == oc.resCount
		if !complete {
			// Progress on a multi-fragment result: the retry budget starts
			// over, and the retransmissions that now ask the server for its
			// unacknowledged window are paced as windows are, by the
			// configured interval. The completing fragment leaves the budget
			// alone: Await reads it to apply Karn's rule.
			oc.retries = 0
			oc.interval = c.cfg.RetransInterval
			oc.nextAt = c.clk.Now().Add(oc.interval)
		}
	}
	if complete && oc.trace != nil {
		oc.trace.stamp(StageResultRecv, c.traceNow())
	}
	// Completion must happen before mu is released: an impaired transport
	// can deliver a duplicate of this result frame from another goroutine,
	// and finishing outside the lock would let that duplicate pass the
	// finished check above and rebuild the result buffer while the
	// awakened caller reads it (and double-count the completion).
	if complete {
		oc.finishLocked(k, oc.resBuf, nil)
	}
	oc.mu.Unlock()

	if needAck {
		c.sendAck(src, hdr.Activity, hdr.Seq, ackIdx, true)
	}
}

// onAck moves a fragment stream on: the caller's acks of a result window on
// the server, the server's acks of an argument window on the caller. The
// next window, or the final fragment, leaves from here.
func (c *Conn) onAck(src transport.Addr, hdr wire.RPCHeader) {
	if hdr.Flags&flagAckResult != 0 {
		// Caller acking our result fragment.
		ch := c.lookupChannel(src)
		if ch == nil {
			return
		}
		ch.actsMu.Lock()
		if act := ch.acts[hdr.Activity]; act != nil && act.lastSeq == hdr.Seq && act.res.ack(hdr.FragIndex) {
			c.streamLocked(act)
		}
		ch.actsMu.Unlock()
		return
	}
	// Server acking our call fragment, or telling us it is executing.
	k := callKey{hdr.Activity, hdr.Seq}
	_, oc := c.lookupCall(src, k)
	if oc == nil {
		return
	}
	oc.mu.Lock()
	if oc.finished || oc.key != k {
		oc.mu.Unlock()
		return
	}
	if hdr.FragIndex == ackInProgress {
		// Server says it is still executing: reset patience. The engine
		// sees the pushed-out nextAt when this entry fires and re-arms
		// without retransmitting.
		oc.retries = 0
		if oc.interval > 0 {
			oc.nextAt = c.clk.Now().Add(oc.interval)
		}
		oc.mu.Unlock()
		return
	}
	if !oc.out.ack(hdr.FragIndex) {
		oc.mu.Unlock()
		return
	}
	// Progress: the retry budget and the window pacing start over, and the
	// engine's entry moves up if a resend had backed it off.
	now := c.clk.Now()
	var err error
	if oc.out.base < oc.out.hdr.FragCount-1 {
		// The next window, or the rest of this one past a gap.
		err = c.sendWindow(oc.dst, &oc.out)
	} else {
		// Every fragment before the final one is stored. The final one
		// keeps the windows' pacing rather than the peer's round-trip
		// estimate, which small calls set: a retransmission that crossed
		// a large result's first window would cost the whole window again.
		err = c.sendFinalLocked(oc, now)
	}
	oc.retries = 0
	oc.interval = c.cfg.RetransInterval
	oc.nextAt = now.Add(oc.interval)
	at := oc.due()
	if err != nil {
		oc.finishLocked(k, nil, err)
	}
	oc.mu.Unlock()
	c.scheduleRetrans(oc, k, at)
}

// onReject completes an outstanding call with ErrRejected, or with
// ErrOverloaded when the server's admission control shed it — the fail-fast
// signal that stops the caller from burning its retry budget against a
// saturated server.
func (c *Conn) onReject(src transport.Addr, hdr wire.RPCHeader) {
	k := callKey{hdr.Activity, hdr.Seq}
	_, oc := c.lookupCall(src, k)
	if oc == nil {
		return
	}
	err := ErrRejected
	if hdr.Hint == wire.RejectOverload {
		c.stats.overloads.Add(1)
		c.noteOverloadRecv(hdr.Activity, hdr.Seq)
		err = ErrOverloaded
	} else {
		c.flight.record(FlightReject, hdr.Activity, hdr.Seq, 0)
	}
	oc.finish(k, nil, err)
}

// onCancel handles a caller's best-effort abandonment notice: drop any
// reassembly state or result stream for the cancelled call and mark the
// activity so the executing handler's result is neither sent nor retained.
// A later call on the activity clears the mark.
func (c *Conn) onCancel(src transport.Addr, hdr wire.RPCHeader) {
	ch := c.lookupChannel(src)
	if ch == nil {
		return
	}
	c.stats.cancels.Add(1)
	c.flight.record(FlightCancelRecv, hdr.Activity, hdr.Seq, 0)
	ch.actsMu.Lock()
	act := ch.acts[hdr.Activity]
	if act != nil && act.lastSeq == hdr.Seq {
		switch act.phase {
		case phaseReceiving:
			// Mid-reassembly: empty the partial buffer, which stays for the
			// activity's next call; stray retransmitted fragments of this
			// seq are dropped because the activity is parked in phaseDone
			// with nothing retained.
			act.abandoned = true
			act.argBuf = act.argBuf[:0]
			act.phase = phaseDone
		case phaseExecuting:
			act.abandoned = true
		default:
			// Mid-stream, nobody wants the rest of the result.
			act.endStreamLocked()
		}
	}
	ch.actsMu.Unlock()
}
