package proto

import (
	"time"

	"fireflyrpc/internal/wire"
)

// The retransmission engine: one goroutine per Conn drives every pending
// call's retransmission timer off a single min-heap, replacing the old
// scheme where each blocked caller goroutine ran its own timer loop. It is
// the only timer a call uses. The caller drives recovery, as in Birrell and
// Nelson's design: the engine resends a call's unacknowledged argument
// window or, once the arguments are in, its retained final fragment, and
// that retransmission is what asks a server to resend its retained result
// or the unacknowledged window of a multi-fragment one. The server keeps
// no timer for a call and sends only in reply to the caller's packets.
// This is what makes the async API cheap — a thousand in-flight calls cost
// one timer goroutine, not a thousand, whatever their size — and it gives
// cancellation and per-call deadlines one place to be enforced.
//
// Locking: heap order (heapAt/heapIdx/inHeap) and earliestNs are guarded
// by retransMu; a call's retransmission state (out, frame, nextAt,
// interval, retries, deadline) by its outCall.mu. The only nesting is
// retransMu → outCall.mu, never the reverse.

// maxEngineSleep bounds the engine's nap so config changes and sweeps are
// never starved behind an empty heap.
const maxEngineSleep = time.Minute

// scheduleRetrans arms the engine to look at one call at `at` unless the
// call completes first, moving an entry already in the heap up if `at` is
// earlier. The key re-check makes a stale schedule of a recycled outCall a
// no-op.
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
		c.retransSched++
		if ns := at.UnixNano(); ns < c.earliestNs {
			c.earliestNs = ns
			select {
			case c.retransKick <- struct{}{}:
			default:
			}
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
		oc.inHeap = false
	}
	oc.mu.Unlock()
	c.retransMu.Unlock()
}

// retransLoop is the engine goroutine. It pops due calls, retransmits or
// times them out, and doubles as the idle-peer sweeper so no separate
// janitor goroutine exists.
func (c *Conn) retransLoop() {
	timer := time.NewTimer(maxEngineSleep)
	defer timer.Stop()
	var due []*outCall
	var lastSched uint64
	sweepEvery := c.cfg.PeerIdleTimeout / 2
	if sweepEvery <= 0 {
		sweepEvery = maxEngineSleep
	}
	nextSweep := time.Now().Add(sweepEvery)
	for {
		now := time.Now()
		due = due[:0]
		c.retransMu.Lock()
		for len(c.rheap) > 0 && !c.rheap[0].heapAt.After(now) {
			oc := c.heapPop()
			oc.inHeap = false
			due = append(due, oc)
		}
		c.retransMu.Unlock()
		for _, oc := range due {
			c.fireRetrans(oc)
		}
		if c.cfg.PeerIdleTimeout > 0 && !now.Before(nextSweep) {
			c.sweepIdle(now)
			nextSweep = now.Add(sweepEvery)
		}

		// Decide how long to sleep, publishing the wake time so a
		// concurrent schedule of an earlier deadline can kick us awake.
		base := time.Now()
		wake := base.Add(maxEngineSleep)
		if c.cfg.PeerIdleTimeout > 0 && nextSweep.Before(wake) {
			wake = nextSweep
		}
		c.retransMu.Lock()
		if len(c.rheap) > 0 {
			if c.rheap[0].heapAt.Before(wake) {
				wake = c.rheap[0].heapAt
			}
		} else if c.retransSched != lastSched {
			// The heap is empty but calls were scheduled since our last
			// wake: traffic is flowing and calls are completing faster than
			// their retransmission deadlines. Linger one floor interval
			// instead of publishing a far-future wake, so the next call's
			// schedule lands after earliestNs and needn't kick us — without
			// this, every call in a tight loop pays a channel send and an
			// engine wakeup.
			if lw := base.Add(c.cfg.RetransInterval / 8); lw.Before(wake) {
				wake = lw
			}
		}
		lastSched = c.retransSched
		c.earliestNs = wake.UnixNano()
		c.retransMu.Unlock()
		d := time.Until(wake)
		if d < 0 {
			d = 0
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(d)
		select {
		case <-timer.C:
		case <-c.retransKick:
		case <-c.workQuit:
			return
		}
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

func (c *Conn) heapPop() *outCall {
	oc := c.rheap[0]
	c.heapRemove(0)
	return oc
}

func (c *Conn) heapRemove(i int) {
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
