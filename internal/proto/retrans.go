package proto

import (
	"math"
	"time"

	"fireflyrpc/internal/wire"
)

// The retransmission engine: the function of one runtime timer per Conn
// (time.AfterFunc). It drives every pending call's retransmission off a
// single min-heap and doubles as the idle-peer sweeper; no goroutine waits
// on it. The caller drives recovery, as in Birrell and Nelson's design: the
// engine resends a call's unacknowledged argument window or, once the
// arguments are in, its retained final fragment, and that retransmission
// is what asks a server to resend its retained result or the
// unacknowledged window of a multi-fragment one. The server keeps no timer
// for a call and sends only in reply to the caller's packets. So a
// thousand in-flight calls cost one timer, not a thousand, whatever their
// size, and cancellation and per-call deadlines have one place to be
// enforced. A call that completes in time leaves the timer armed, and the
// tick that finds nothing due re-arms for the heap's top: a tight call loop
// resets the timer about once per retransmission interval, not per call.
//
// Locking: heap order (heapAt/heapIdx/inHeap), wake, nextSweep and every
// Reset of the timer are guarded by retransMu, since after a Reset the
// timer's function can run concurrently with itself; a call's
// retransmission state (out, frame, nextAt, interval, retries, deadline)
// by its outCall.mu. The only nesting is retransMu → outCall.mu.

// startRetrans creates the Conn's engine timer, armed for the first idle
// sweep when PeerIdleTimeout enables sweeps; otherwise the first schedule
// arms it. The lock orders the timer's creation before its first tick.
func (c *Conn) startRetrans() {
	c.retransMu.Lock()
	defer c.retransMu.Unlock()
	d := time.Duration(math.MaxInt64)
	if every := c.cfg.PeerIdleTimeout / 2; every > 0 {
		d = every
		c.nextSweep = time.Now().Add(every)
		c.wake = c.nextSweep
	}
	c.engine = time.AfterFunc(d, c.retransTick)
}

// scheduleRetrans arms the engine to look at one call at `at` unless the
// call completes first, moving an entry already in the heap up if `at` is
// earlier. The key re-check makes a stale schedule of a recycled outCall a
// no-op. The timer is reset only for a time earlier than its wake; while a
// tick runs, wake is in the past, and the tick re-arms for what was pushed.
func (c *Conn) scheduleRetrans(oc *outCall, k callKey, at time.Time) {
	c.retransMu.Lock()
	oc.mu.Lock()
	if !oc.finished && oc.key == k && (!oc.inHeap || at.Before(oc.heapAt)) {
		oc.heapAt = at
		if oc.inHeap {
			c.heapUp(oc.heapIdx)
		} else {
			oc.inHeap = true
			c.heapPush(oc)
		}
		if c.wake.IsZero() || at.Before(c.wake) {
			c.wake = at
			c.engine.Reset(time.Until(at))
		}
	}
	oc.mu.Unlock()
	c.retransMu.Unlock()
}

// unscheduleRetrans removes a completed call from the heap (if present) so
// the heap only ever holds genuinely pending calls.
func (c *Conn) unscheduleRetrans(oc *outCall, k callKey) {
	c.retransMu.Lock()
	oc.mu.Lock()
	if oc.inHeap && oc.key == k {
		c.heapRemove(oc.heapIdx)
	}
	oc.mu.Unlock()
	c.retransMu.Unlock()
}

// retransTick is the engine timer's function. It retransmits or times out
// every call due by the time it fired, re-arms the timer for the heap's
// top or the next sweep, whichever comes first, and runs the idle sweep
// when one is due. A tick after Close returns at once.
func (c *Conn) retransTick() {
	if c.closed.Load() {
		return
	}
	now := time.Now()
	for {
		c.retransMu.Lock()
		if len(c.rheap) == 0 || c.rheap[0].heapAt.After(now) {
			break // holding retransMu
		}
		oc := c.rheap[0]
		c.heapRemove(0)
		c.retransMu.Unlock()
		c.fireRetrans(oc)
	}
	sweep := !c.nextSweep.IsZero() && !now.Before(c.nextSweep)
	if sweep {
		c.nextSweep = now.Add(c.cfg.PeerIdleTimeout / 2)
	}
	c.wake = c.nextSweep
	if len(c.rheap) > 0 && (c.wake.IsZero() || c.rheap[0].heapAt.Before(c.wake)) {
		c.wake = c.rheap[0].heapAt
	}
	if !c.wake.IsZero() {
		c.engine.Reset(time.Until(c.wake))
	}
	c.retransMu.Unlock()
	if sweep {
		c.sweepIdle(now)
	}
}

// fireRetrans handles one due call: skip it if it completed or pushed its
// own deadline forward (progress or an in-progress ack arrived), time it
// out if its deadline or retry budget is exhausted, otherwise resend its
// unacknowledged argument window, or its retained final fragment with the
// please-ack flag flipped in place, and re-arm with exponential backoff. A
// timeout records its flight dump before it finishes the call, so the dump
// is there by the time Await returns.
func (c *Conn) fireRetrans(oc *outCall) {
	oc.mu.Lock()
	if oc.finished || (oc.frame == nil && oc.out.msg == nil) {
		oc.mu.Unlock()
		return
	}
	k := oc.key
	now := time.Now()
	if !oc.deadline.IsZero() && !now.Before(oc.deadline) {
		// Per-call deadline (Config.CallTimeout or the caller's context
		// deadline) wins over the retry budget, even while retransmissions
		// are being answered with in-progress acks.
		c.noteTimeout(k, oc.retries)
		oc.finishLocked(k, nil, ErrTimeout)
		oc.mu.Unlock()
		return
	}
	if oc.nextAt.After(now) {
		// Patience was reset (progress, or the server said "still
		// executing") after this entry was queued: re-arm without
		// retransmitting.
		at := oc.due()
		oc.mu.Unlock()
		c.scheduleRetrans(oc, k, at)
		return
	}
	oc.retries++
	if oc.retries > c.cfg.MaxRetries {
		c.noteTimeout(k, oc.retries-1)
		oc.finishLocked(k, nil, ErrTimeout)
		oc.mu.Unlock()
		return
	}
	c.stats.retransmits.Add(1)
	var err error
	if oc.out.msg != nil {
		// Stuck mid-arguments: resend the unacknowledged window.
		err = c.sendWindow(oc.dst, &oc.out)
	} else {
		// Retransmissions request an explicit acknowledgement so a busy
		// server can answer without completing. The flag is flipped in
		// place in the retained frame (byte 3 of the wire header) rather
		// than rebuilding the packet.
		oc.frame.Bytes()[3] |= wire.FlagPleaseAck
		if oc.trace != nil {
			// Stamp the (latest) retransmission so the accounting can flag
			// calls whose latency includes a retry, and count the retries.
			oc.trace.stamp(StageRetransmit)
			oc.trace.retries.Store(int32(oc.retries))
		}
		err = c.send(oc.dst, oc.frame.Bytes())
	}
	if err != nil {
		oc.finishLocked(k, nil, err)
		oc.mu.Unlock()
		return
	}
	doubled := false
	if oc.interval < 8*c.cfg.RetransInterval {
		oc.interval *= 2
		doubled = true
	}
	retries := oc.retries
	intervalNs := int64(oc.interval)
	oc.nextAt = now.Add(oc.interval)
	at := oc.due()
	oc.mu.Unlock()
	c.noteRetransmit(k, retries, intervalNs, doubled)
	c.scheduleRetrans(oc, k, at)
}

// ---------------------------------------------------------------------------
// Min-heap of *outCall ordered by heapAt. Hand-rolled rather than
// container/heap so pushes and removals touch no interface values; all
// operations run under retransMu.
// ---------------------------------------------------------------------------

func (c *Conn) heapPush(oc *outCall) {
	c.rheap = append(c.rheap, oc)
	oc.heapIdx = len(c.rheap) - 1
	c.heapUp(oc.heapIdx)
}

func (c *Conn) heapRemove(i int) {
	c.rheap[i].inHeap = false
	last := len(c.rheap) - 1
	if i != last {
		c.rheap[i] = c.rheap[last]
		c.rheap[i].heapIdx = i
	}
	c.rheap[last] = nil
	c.rheap = c.rheap[:last]
	if i < last {
		c.heapDown(i)
		c.heapUp(i)
	}
}

func (c *Conn) heapUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !c.rheap[i].heapAt.Before(c.rheap[parent].heapAt) {
			return
		}
		c.heapSwap(i, parent)
		i = parent
	}
}

func (c *Conn) heapDown(i int) {
	n := len(c.rheap)
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && c.rheap[l].heapAt.Before(c.rheap[least].heapAt) {
			least = l
		}
		if r < n && c.rheap[r].heapAt.Before(c.rheap[least].heapAt) {
			least = r
		}
		if least == i {
			return
		}
		c.heapSwap(i, least)
		i = least
	}
}

func (c *Conn) heapSwap(i, j int) {
	c.rheap[i], c.rheap[j] = c.rheap[j], c.rheap[i]
	c.rheap[i].heapIdx = i
	c.rheap[j].heapIdx = j
}
