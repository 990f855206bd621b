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
	rec.stampAt(StageSrvRecv, recvNs)
	rec.stamp(StageSrvQueued)
	req.trace = rec
}

// onCallFrag handles an arriving call fragment on the server side. All the
// duplicate-suppression state lives in the calling peer's channel.
func (c *Conn) onCallFrag(src transport.Addr, hdr wire.RPCHeader, payload []byte) {
	// Traced calls stamp their arrival before any locking; untraced calls
	// pay one branch on an already-loaded header byte.
	var recvNs int64
	if hdr.Flags&(wire.FlagTraced|wire.FlagTraceCtx) != 0 {
		recvNs = traceNow()
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
	ch.touch(time.Now())
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
			needAck, req, run := c.storeFragLocked(act, hdr, payload)
			if run {
				ch.executing.Add(1)
			}
			ch.actsMu.Unlock()
			if needAck {
				c.sendAck(src, hdr.Activity, hdr.Seq, hdr.FragIndex, false)
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
		default: // phaseDone: retransmit the retained final result frame.
			// The send happens under actsMu: the retained frame lives in a
			// pooled buffer that the activity's next call releases, so it
			// must not be recycled mid-transmission. Duplicates are rare;
			// the fast path never reaches here.
			c.stats.dupCalls.Add(1)
			if act.lastResultFrame != nil {
				c.stats.resultRetrans.Add(1)
				_ = c.send(src, act.lastResultFrame.Bytes())
			}
			ch.actsMu.Unlock()
			return
		}

	default: // a new call: implicitly acknowledges the previous result
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
		needAck, req, run := c.storeFragLocked(act, hdr, payload)
		if run {
			ch.executing.Add(1)
		}
		ch.actsMu.Unlock()
		if needAck {
			c.sendAck(src, hdr.Activity, hdr.Seq, hdr.FragIndex, false)
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
// whether the fragment wants an explicit ack and whether the call is ready
// to execute; the caller performs both actions after releasing the lock
// (and bumps the channel's executing count under it when run is true).
//
// Fragments arrive in order: the caller sends fragment i+1 only after
// fragment i's ack, which is sent only after i is stored here. Anything
// below next is therefore a late duplicate, to be re-acked in case the
// first ack was lost; anything above it cannot come from a conforming
// caller and is dropped unacked.
func (c *Conn) storeFragLocked(act *serverAct, hdr wire.RPCHeader, payload []byte) (needAck bool, req execReq, run bool) {
	if hdr.FragCount != act.count || hdr.FragIndex > act.next {
		c.stats.badFrames.Add(1)
		return false, execReq{}, false
	}
	needAck = hdr.Flags&wire.FlagPleaseAck != 0 && hdr.Flags&wire.FlagLastFrag == 0
	if hdr.FragIndex < act.next {
		c.stats.dupFrags.Add(1)
		return needAck, execReq{}, false
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
		return needAck, execReq{}, false
	}
	args := act.argBuf
	act.argBuf = nil // the worker owns it until execution finishes
	act.phase = phaseExecuting
	return needAck, execReq{act: act, hdr: hdr, tc: act.tc, args: args, budgetNs: callBudgetNs(hdr)}, true
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
// without holding any channel lock.
func (c *Conn) execute(req execReq) {
	act, hdr := req.act, req.hdr
	ch := act.ch
	defer ch.executing.Add(-1)
	if req.trace != nil {
		req.trace.stamp(StageSrvDispatch)
	}

	result, err := c.handler(act.src, req.tc, hdr.Interface, hdr.Proc, req.args)
	c.stats.callsServed.Add(1)
	if req.trace != nil {
		req.trace.stamp(StageSrvDone)
	}
	// No touch here: every inbound frame (including the retransmissions a
	// waiting caller sends during a long handler) already stamps the
	// channel in onCallFrag, and the executing counter blocks eviction
	// while the handler runs.
	ch.actsMu.Lock()
	abandoned := act.abandoned && act.lastSeq == hdr.Seq
	ch.actsMu.Unlock()
	var final *buffer.Frame // completes the call; sent and retained below
	switch {
	case abandoned:
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
		final = c.sendResult(act, hdr, result)
	}

	// Return the argument buffer for the next call's reuse before the final
	// frame goes out: the caller's next call can arrive the moment it does,
	// and would otherwise find the buffer still out and grow a new one.
	// Every result byte is in a frame by now, so a result that aliases the
	// arguments is safe. If a newer call already took another (an overlap
	// only a timed-out caller can produce), the older buffer is dropped.
	if req.args != nil {
		ch.actsMu.Lock()
		if act.argBuf == nil && !ch.evicted {
			act.argBuf = req.args[:0]
		}
		ch.actsMu.Unlock()
	}
	if final != nil {
		_ = c.send(act.src, final.Bytes())
	}
	c.retainResult(act, hdr.Seq, final)
	if req.trace != nil {
		req.trace.stamp(StageSrvResultSent)
	}
}

// retainResult completes call seq on the activity and parks its final
// frame in the call-table slot for retransmission, releasing its
// predecessor. With no frame (the call was abandoned, or the server gave
// up sending its result) the call completes with nothing to retransmit, so
// the caller's retransmissions go unanswered until its retry budget runs
// out. If a newer call has superseded seq, the caller abandoned the call,
// or the channel was evicted while the handler ran, the frame is released
// instead: nobody may (or will) retransmit it.
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

// sendResult transmits all but the last result fragment, stop-and-wait, and
// returns the last one built but unsent: its receipt is acknowledged
// implicitly by the next call, so the caller sends it and retains it for
// retransmission. A result too large to ship returns a reject frame in its
// place, retained the same way. It returns nil when it gave up.
func (c *Conn) sendResult(act *serverAct, call wire.RPCHeader, result []byte) *buffer.Frame {
	ch := act.ch
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
		FragCount: uint16(nfrags),
		Interface: call.Interface,
		Proc:      call.Proc,
	}
	if nfrags > 1 {
		// Multi-fragment results need the explicit-ack channel; create it
		// lazily and flush stale entries from a previous call.
		ch.actsMu.Lock()
		if act.ackCh == nil {
			act.ackCh = make(chan fragAck, maxFragments)
		}
		for {
			select {
			case <-act.ackCh:
				continue
			default:
			}
			break
		}
		ch.actsMu.Unlock()
		timer := time.NewTimer(c.cfg.RetransInterval)
		defer timer.Stop()
		for i := uint16(0); i < uint16(nfrags-1); i++ {
			h := hdr
			h.FragIndex = i
			h.Flags = wire.FlagPleaseAck
			f := c.newFrame(h, wire.TraceCtx{}, result[:maxP])
			result = result[maxP:]
			ok := c.sendResultFragWithAck(act, call, f, i, timer)
			f.Release()
			if !ok {
				return nil // gave up
			}
		}
	}
	last := hdr
	last.FragIndex = uint16(nfrags - 1)
	last.Flags = wire.FlagLastFrag
	return c.newFrame(last, wire.TraceCtx{}, result)
}

// sendResultFragWithAck is the server-side stop-and-wait sender, re-arming
// the result's one timer for this fragment. It gives up early when the
// caller abandons the call mid-stream.
func (c *Conn) sendResultFragWithAck(act *serverAct, call wire.RPCHeader, frame *buffer.Frame, idx uint16, timer *time.Timer) bool {
	if err := c.send(act.src, frame.Bytes()); err != nil {
		return false
	}
	ch := act.ch
	interval := c.cfg.RetransInterval
	retries := 0
	rearm(timer, interval)
	for {
		select {
		case got := <-act.ackCh:
			if got.activity == call.Activity && got.seq == call.Seq && got.idx == idx {
				return true
			}
		case <-timer.C:
			ch.actsMu.Lock()
			gone := act.abandoned || act.lastSeq != call.Seq || ch.evicted
			ch.actsMu.Unlock()
			if gone {
				return false
			}
			retries++
			if retries > c.cfg.MaxRetries {
				return false
			}
			c.stats.retransmits.Add(1)
			c.noteRetransmit(callKey{call.Activity, call.Seq}, retries, int64(interval), false)
			if err := c.send(act.src, frame.Bytes()); err != nil {
				return false
			}
			if interval < 8*c.cfg.RetransInterval {
				interval *= 2
			}
			timer.Reset(interval)
		}
	}
}

// onResultFrag handles an arriving result fragment on the caller side.
func (c *Conn) onResultFrag(src transport.Addr, hdr wire.RPCHeader, payload []byte) {
	k := callKey{hdr.Activity, hdr.Seq}
	_, oc := c.lookupCall(src, k)
	needAck := hdr.Flags&wire.FlagPleaseAck != 0 && hdr.Flags&wire.FlagLastFrag == 0
	if oc == nil {
		// Late duplicate of a completed call. Re-ack non-final fragments
		// so a stuck server-side stop-and-wait can finish.
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
	// caller-supplied buffer, which core.Client keeps across calls.
	switch {
	case hdr.FragCount == 0 || hdr.FragCount > maxFragments ||
		hdr.FragIndex > oc.resNext || (oc.resNext > 0 && hdr.FragCount != oc.resCount):
		c.stats.badFrames.Add(1)
		needAck = false
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
	}
	if complete && oc.trace != nil {
		oc.trace.stamp(StageResultRecv)
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
		c.sendAck(src, hdr.Activity, hdr.Seq, hdr.FragIndex, true)
	}
}

// onAck routes an acknowledgement to the waiting sender.
func (c *Conn) onAck(src transport.Addr, hdr wire.RPCHeader) {
	if hdr.Flags&flagAckResult != 0 {
		// Caller acking our result fragment.
		ch := c.lookupChannel(src)
		if ch == nil {
			return
		}
		ch.actsMu.Lock()
		act := ch.acts[hdr.Activity]
		var ackCh chan fragAck
		if act != nil && act.lastSeq == hdr.Seq {
			ackCh = act.ackCh
		}
		ch.actsMu.Unlock()
		if ackCh != nil {
			select {
			case ackCh <- fragAck{hdr.Activity, hdr.Seq, hdr.FragIndex}:
			default:
			}
		}
		return
	}
	// Server acking our call fragment, or telling us it is executing.
	k := callKey{hdr.Activity, hdr.Seq}
	_, oc := c.lookupCall(src, k)
	if oc == nil {
		return
	}
	if hdr.FragIndex == ackInProgress {
		// Server says it is still executing: reset patience. The engine
		// sees the pushed-out nextAt when this entry fires and re-arms
		// without retransmitting.
		oc.mu.Lock()
		if !oc.finished && oc.key == k {
			oc.retries = 0
			if oc.interval > 0 {
				oc.nextAt = time.Now().Add(oc.interval)
			}
		}
		oc.mu.Unlock()
		return
	}
	select {
	case oc.ackCh <- fragAck{hdr.Activity, hdr.Seq, hdr.FragIndex}:
	default:
	}
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
// reassembly state for the cancelled call and mark the activity so the
// executing handler's result is neither sent nor retained. A later call on
// the activity clears the mark.
func (c *Conn) onCancel(src transport.Addr, hdr wire.RPCHeader) {
	ch := c.lookupChannel(src)
	if ch == nil {
		return
	}
	c.stats.cancels.Add(1)
	c.flight.record(FlightCancelRecv, hdr.Activity, hdr.Seq, 0)
	ch.actsMu.Lock()
	act := ch.acts[hdr.Activity]
	if act != nil && act.lastSeq == hdr.Seq && act.phase != phaseDone {
		act.abandoned = true
		if act.phase == phaseReceiving {
			// Mid-reassembly: empty the partial buffer, which stays for the
			// activity's next call; stray retransmitted fragments of this
			// seq are dropped because the activity is parked in phaseDone
			// with nothing retained.
			act.argBuf = act.argBuf[:0]
			act.phase = phaseDone
		}
	}
	ch.actsMu.Unlock()
}
