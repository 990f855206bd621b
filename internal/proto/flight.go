package proto

import (
	"sync/atomic"
	"time"

	"fireflyrpc/internal/clock"
)

// Flight recorder: the always-on black box. Sampled stage tracing answers
// "where do the microseconds go" for healthy calls; the flight recorder
// answers "what just happened" when something goes wrong — and it is
// running before the operator thinks to turn anything on. Every Conn embeds
// a fixed, all-atomic ring that records only anomalies (retransmissions,
// RTO doublings, timeouts, sheds and overload rejections, session
// fallbacks, cancellations), so the steady-state fast path never touches
// it and recording an event is a handful of atomic stores into a
// pre-allocated slot — zero allocations, no locks, same discipline as the
// trace ring.
//
// Trigger conditions auto-dump the ring into an immutable snapshot: every
// call timeout, an ErrOverloaded burst, or a retransmit storm (the
// window-counter thresholds below). The dump is the only allocating step,
// and it happens on paths that are already failing. /debug/rpc/flight
// serves both the live ring and the last dump.

// flightRingSize fixes the per-Conn event ring: large enough to hold the
// lead-up to any trigger, small enough (~12 KB) to embed in every Conn.
const flightRingSize = 256

// Dump trigger thresholds.
const (
	// flightOverloadBurst overload rejections within flightOverloadWindow
	// dump the ring ("the server is shedding us faster than we back off").
	flightOverloadBurst  = 16
	flightOverloadWindow = int64(100 * time.Millisecond)
	// flightRetransStorm retransmissions within flightRetransWindow dump
	// the ring ("the wire or the peer is losing most of what we send").
	flightRetransStorm  = 64
	flightRetransWindow = int64(time.Second)
)

// FlightKind classifies one recorded anomaly.
type FlightKind uint8

const (
	// FlightRetransmit: a call fragment was retransmitted (arg = retry #).
	FlightRetransmit FlightKind = iota + 1
	// FlightRTOBackoff: the retransmission interval doubled (arg = new ns).
	FlightRTOBackoff
	// FlightTimeout: a call failed with ErrTimeout (arg = retries spent).
	FlightTimeout
	// FlightShed: the server's admission control shed a call.
	FlightShed
	// FlightReject: the caller received a dispatch rejection.
	FlightReject
	// FlightOverload: the caller received an overload rejection.
	FlightOverload
	// FlightSessionFallback: hello negotiation gave up; the channel fell
	// back to the legacy v0 session (arg = attempts).
	FlightSessionFallback
	// FlightCancelRecv: the server learned a caller abandoned a call.
	FlightCancelRecv
	// FlightCancelSent: this caller abandoned a call (context cancelled).
	FlightCancelSent
)

var flightKindNames = [...]string{
	"", "retransmit", "rto-backoff", "timeout", "shed", "reject",
	"overload", "session-fallback", "cancel-recv", "cancel-sent",
}

// String names the event kind.
func (k FlightKind) String() string {
	if int(k) < len(flightKindNames) && k != 0 {
		return flightKindNames[k]
	}
	return "unknown"
}

// flightRec is one ring slot; all fields atomic for the same reason as
// traceRec — the ring wraps, and a snapshot mid-overwrite must read torn
// slots as droppable, not as races.
type flightRec struct {
	gen      atomic.Uint64 // claim ticket; re-checked by snapshot
	ns       atomic.Int64
	kind     atomic.Uint32
	activity atomic.Uint64
	seq      atomic.Uint32
	arg      atomic.Int64
}

// burstWindow is a lock-free fixed-window event counter for the dump
// triggers: hit() reports true exactly when an event crosses the threshold
// within the current window, so each burst dumps once.
type burstWindow struct {
	startNs atomic.Int64
	count   atomic.Int64
}

func (w *burstWindow) hit(now, windowNs, threshold int64) bool {
	st := w.startNs.Load()
	if now-st > windowNs {
		if w.startNs.CompareAndSwap(st, now) {
			w.count.Store(0)
		}
	}
	return w.count.Add(1) == threshold
}

// flightRecorder is the per-Conn recorder state, embedded (never allocated)
// in Conn; clk is the Conn's clock.
type flightRecorder struct {
	clk         clock.Clock
	next        atomic.Uint64
	dumps       atomic.Int64
	last        atomic.Pointer[FlightDump]
	overloadWin burstWindow
	retransWin  burstWindow
	ring        [flightRingSize]flightRec
}

// record appends one event: atomic stores into the next slot, no
// allocation. Concurrent recorders may interleave within a slot; the
// snapshot's generation re-check drops such slots.
func (f *flightRecorder) record(kind FlightKind, activity uint64, seq uint32, arg int64) {
	i := f.next.Add(1)
	r := &f.ring[(i-1)%flightRingSize]
	r.gen.Store(i)
	r.ns.Store(stampNow(f.clk))
	r.kind.Store(uint32(kind))
	r.activity.Store(activity)
	r.seq.Store(seq)
	r.arg.Store(arg)
}

// FlightEvent is one exported recorder event; Ns counts from the same
// process-wide origin as trace records, so flight events and trace spans
// align on one timeline.
type FlightEvent struct {
	Ns       int64  `json:"ns"`
	Kind     string `json:"kind"`
	Activity uint64 `json:"activity"`
	Seq      uint32 `json:"seq"`
	Arg      int64  `json:"arg,omitempty"`
}

// FlightDump is one auto-dumped ring snapshot.
type FlightDump struct {
	At      time.Time     `json:"at"`
	Trigger string        `json:"trigger"`
	Events  []FlightEvent `json:"events"`
}

// snapshot reads the ring oldest-first, dropping slots overwritten
// mid-read.
func (f *flightRecorder) snapshot() []FlightEvent {
	n := f.next.Load()
	count := n
	if count > flightRingSize {
		count = flightRingSize
	}
	start := uint64(0)
	if n > flightRingSize {
		start = n % flightRingSize
	}
	out := make([]FlightEvent, 0, count)
	for i := uint64(0); i < count; i++ {
		r := &f.ring[(start+i)%flightRingSize]
		gen := r.gen.Load()
		if gen == 0 {
			continue
		}
		ev := FlightEvent{
			Ns:       r.ns.Load(),
			Kind:     FlightKind(r.kind.Load()).String(),
			Activity: r.activity.Load(),
			Seq:      r.seq.Load(),
			Arg:      r.arg.Load(),
		}
		if r.gen.Load() != gen {
			continue // overwritten mid-read
		}
		out = append(out, ev)
	}
	return out
}

// flightDump snapshots the ring into an immutable dump — the one step that
// allocates, taken only on trigger conditions (paths already failing).
func (c *Conn) flightDump(trigger string) {
	d := &FlightDump{At: c.clk.Now(), Trigger: trigger, Events: c.flight.snapshot()}
	c.flight.last.Store(d)
	c.flight.dumps.Add(1)
}

// FlightEvents returns the live ring's current contents, oldest first.
func (c *Conn) FlightEvents() []FlightEvent { return c.flight.snapshot() }

// LastFlightDump returns the most recent auto-dump (nil when no trigger
// has fired) and the total number of dumps taken.
func (c *Conn) LastFlightDump() (*FlightDump, int64) {
	return c.flight.last.Load(), c.flight.dumps.Load()
}

// noteRetransmit records one retransmission (and its RTO doubling, when it
// happened) and fires the storm trigger when the window threshold crosses.
func (c *Conn) noteRetransmit(k callKey, retries int, intervalNs int64, doubled bool) {
	c.flight.record(FlightRetransmit, k.activity, k.seq, int64(retries))
	if doubled {
		c.flight.record(FlightRTOBackoff, k.activity, k.seq, intervalNs)
	}
	if c.flight.retransWin.hit(c.traceNow(), flightRetransWindow, flightRetransStorm) {
		c.flightDump("retransmit-storm")
	}
}

// noteOverloadRecv records one overload rejection and fires the burst
// trigger when the window threshold crosses.
func (c *Conn) noteOverloadRecv(activity uint64, seq uint32) {
	c.flight.record(FlightOverload, activity, seq, 0)
	if c.flight.overloadWin.hit(c.traceNow(), flightOverloadWindow, flightOverloadBurst) {
		c.flightDump("overload-burst")
	}
}

// noteTimeout records a call timeout and always dumps: a deadline miss is
// rare enough, and valuable enough, that every one preserves its lead-up.
func (c *Conn) noteTimeout(k callKey, retries int) {
	c.flight.record(FlightTimeout, k.activity, k.seq, int64(retries))
	c.flightDump("call-timeout")
}
