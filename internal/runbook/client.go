package runbook

import (
	"math"
	"time"

	"fireflyrpc/internal/sim"
	"fireflyrpc/internal/stats"
)

// workloadRun drives one declared workload: a closed loop of Outstanding
// call slots (each slot issues its next call when the previous resolves) or
// an open-loop arrival process that issues calls on a schedule no matter
// what completions do. All timing and randomness comes from the kernel, so
// the stream of calls is a pure function of (runbook, seed).
type workloadRun struct {
	ex      *exec
	idx     uint32
	spec    *WorkloadSpec
	client  *node
	targets []*node
	cdf     []float64 // cumulative Zipf weights when Skew > 0
	rr      int       // round-robin cursor when Skew == 0

	rate      float64  // current open-loop rate (phases update it)
	windowEnd sim.Time // no calls launch at or past this instant

	// Counters below reset at the warmup boundary.
	hist        *stats.Hist
	started     int64
	completed   int64
	timeouts    int64
	failures    int64
	overloads   int64
	retransmits int64
	hedges      int64
}

// call is one in-flight RPC owned by a workload.
type call struct {
	id     uint64
	wl     *workloadRun
	target *node

	start    sim.Time
	deadline sim.Time // 0 = no per-call deadline
	rto      sim.Duration
	retries  int

	retransmitted bool // excludes the call from the stage identity
	warmup        bool // started before the warmup boundary: never counted
	closed        bool // a closed-loop slot: resolution launches a successor
	done          bool

	retrans, dlTimer, hedge *sim.Timer
}

func newWorkloadRun(ex *exec, idx uint32, spec *WorkloadSpec) *workloadRun {
	w := &workloadRun{
		ex:     ex,
		idx:    idx,
		spec:   spec,
		client: ex.byName[spec.Client],
		rate:   spec.RatePerSec,
		hist:   new(stats.Hist),
	}
	for _, t := range spec.Targets {
		w.targets = append(w.targets, ex.byName[t])
	}
	if spec.Skew > 0 && len(w.targets) > 1 {
		// Zipf over target order: weight(i) ∝ 1/(i+1)^skew, so targets[0]
		// is the hotspot. Precomputed as a CDF for a single uniform draw.
		total := 0.0
		for i := range w.targets {
			total += 1 / math.Pow(float64(i+1), spec.Skew)
		}
		acc := 0.0
		for i := range w.targets {
			acc += 1 / math.Pow(float64(i+1), spec.Skew) / total
			w.cdf = append(w.cdf, acc)
		}
	}
	w.windowEnd = sim.Time(0).Add(sim.Duration(ex.spec.Duration))
	if spec.Stop != 0 {
		w.windowEnd = sim.Time(0).Add(sim.Duration(spec.Stop))
	}
	return w
}

// begin starts the workload at its Start offset (the executor schedules it).
func (w *workloadRun) begin() {
	if w.spec.Mode == "closed" {
		for i := 0; i < w.spec.outstanding(); i++ {
			w.launch(true)
		}
		return
	}
	for _, ph := range w.spec.Phases {
		ph := ph
		w.ex.k.After(sim.Duration(ph.After), func() { w.rate = ph.RatePerSec })
	}
	w.scheduleArrival()
}

// scheduleArrival chains the open-loop arrival process: each arrival books
// the next using the rate in force at booking time.
func (w *workloadRun) scheduleArrival() {
	mean := sim.Duration(float64(time.Second) / w.rate)
	gap := mean
	if w.spec.Arrival != "uniform" {
		gap = w.ex.k.RNG().Exp(mean)
	}
	w.ex.k.After(gap, func() {
		if w.ex.k.Now() >= w.windowEnd {
			return
		}
		w.launch(false)
		w.scheduleArrival()
	})
}

// pickTarget selects this call's server.
func (w *workloadRun) pickTarget() *node {
	if len(w.targets) == 1 {
		return w.targets[0]
	}
	if len(w.cdf) > 0 {
		u := w.ex.k.RNG().Float64()
		for i, c := range w.cdf {
			if u < c {
				return w.targets[i]
			}
		}
		return w.targets[len(w.targets)-1]
	}
	t := w.targets[w.rr%len(w.targets)]
	w.rr++
	return t
}

// launch issues one call, unless the workload's window has closed.
func (w *workloadRun) launch(closed bool) {
	now := w.ex.k.Now()
	if now >= w.windowEnd {
		return
	}
	c := &call{
		id:     w.ex.nextCallID,
		wl:     w,
		target: w.pickTarget(),
		start:  now,
		rto:    w.ex.rto,
		warmup: !w.ex.counting(),
		closed: closed,
	}
	w.ex.nextCallID++
	w.ex.calls[c.id] = c
	if t := w.spec.Timeout; t > 0 {
		c.deadline = now.Add(sim.Duration(t))
		c.dlTimer = w.ex.k.After(sim.Duration(t), func() { w.onDeadline(c) })
	}
	if !c.warmup {
		w.started++
	}
	if h := w.spec.Hedge; h > 0 && len(w.targets) > 1 {
		c.hedge = w.ex.k.After(sim.Duration(h), func() { w.onHedge(c) })
	}
	w.send(c)
}

// send transmits the request (initial or retransmission) and arms the RTO.
// The budget carried on the wire is the deadline's remaining headroom at
// this send, which is what the server's deadline admission consumes.
func (w *workloadRun) send(c *call) {
	var budget int64
	if c.deadline != 0 {
		budget = int64(c.deadline.Sub(w.ex.k.Now()))
		if budget <= 0 {
			budget = 1 // already dead; the server will shed it on sight
		}
	}
	payload := marshalFrame(rpcFrame{
		kind:     kindReq,
		callID:   c.id,
		budgetNs: budget,
		workload: w.idx,
	}, w.spec.ArgBytes)
	w.client.sendTo(c.target, payload)
	c.retrans = w.ex.k.After(c.rto, func() { w.onRTO(c) })
}

// onHedge fires when a call is still unanswered past the hedge delay: a
// backup copy of the request goes to a different target. Whichever server
// answers first completes the call (finish retires it, so the loser's reply
// finds nothing); the duplicate issue means the server-side stamps can no
// longer be attributed to one request, so the call leaves the stage
// identity the same way a retransmitted call does. The primary's RTO stays
// armed and keeps retransmitting to the primary only.
func (w *workloadRun) onHedge(c *call) {
	if c.done {
		return
	}
	backup := w.pickDistinct(c.target)
	if backup == nil {
		return
	}
	c.retransmitted = true
	if !c.warmup {
		w.hedges++
	}
	var budget int64
	if c.deadline != 0 {
		budget = int64(c.deadline.Sub(w.ex.k.Now()))
		if budget <= 0 {
			budget = 1
		}
	}
	payload := marshalFrame(rpcFrame{
		kind:     kindReq,
		callID:   c.id,
		budgetNs: budget,
		workload: w.idx,
	}, w.spec.ArgBytes)
	w.client.sendTo(backup, payload)
}

// pickDistinct returns a target other than skip, advancing the round-robin
// cursor so consecutive hedges spread over the replica set.
func (w *workloadRun) pickDistinct(skip *node) *node {
	for i := 0; i < len(w.targets); i++ {
		t := w.targets[w.rr%len(w.targets)]
		w.rr++
		if t != skip {
			return t
		}
	}
	return nil
}

// onRTO fires when a send went unanswered: back off and retransmit, or give
// the call up as failed once retries are exhausted.
func (w *workloadRun) onRTO(c *call) {
	if c.done {
		return
	}
	c.retries++
	if c.retries > w.ex.maxRetries {
		w.finish(c)
		if !c.warmup {
			w.failures++
		}
		w.next(c, 0)
		return
	}
	c.retransmitted = true
	if !c.warmup {
		w.retransmits++
	}
	c.rto *= 2
	if c.rto > w.ex.rtoMax {
		c.rto = w.ex.rtoMax
	}
	w.send(c)
}

// onResponse completes the call and, for calls with no retransmission,
// joins the client- and server-side stage stamps into the accounting
// identity (a retransmitted call's server stamps may describe an earlier
// copy of the request, so it is excluded).
func (w *workloadRun) onResponse(c *call) {
	now := w.ex.k.Now()
	lat := now.Sub(c.start)
	if !c.warmup {
		w.completed++
		w.hist.Observe(lat)
		if !c.retransmitted {
			if st := c.target.states[c.id]; st != nil && st.status == stDone {
				w.ex.identity.add(c, st, now)
			}
		}
	}
	w.finish(c)
	w.next(c, 0)
}

// onReject records a wire-level admission rejection; a closed-loop slot
// backs off before its next call so rejected work does not hammer the
// server at wire speed.
func (w *workloadRun) onReject(c *call) {
	if !c.warmup {
		w.overloads++
	}
	w.finish(c)
	w.next(c, sim.Duration(w.spec.backoff()))
}

// onDeadline abandons a call whose per-call deadline expired.
func (w *workloadRun) onDeadline(c *call) {
	if c.done {
		return
	}
	if !c.warmup {
		w.timeouts++
	}
	w.finish(c)
	w.next(c, 0)
}

// finish retires the call: late or duplicate replies find nothing.
func (w *workloadRun) finish(c *call) {
	c.done = true
	if c.retrans != nil {
		c.retrans.Cancel()
	}
	if c.dlTimer != nil {
		c.dlTimer.Cancel()
	}
	if c.hedge != nil {
		c.hedge.Cancel()
	}
	delete(w.ex.calls, c.id)
}

// next keeps a closed-loop slot running: after delay (zero, or the backoff
// after a rejection) the slot launches its successor (launch itself
// enforces the window).
func (w *workloadRun) next(c *call, delay sim.Duration) {
	if !c.closed {
		return
	}
	if delay <= 0 {
		w.launch(true)
		return
	}
	w.ex.k.After(delay, func() { w.launch(true) })
}

// resetMetrics zeroes the warmup-scoped counters at the warmup boundary.
func (w *workloadRun) resetMetrics() {
	w.hist = new(stats.Hist)
	w.started = 0
	w.completed = 0
	w.timeouts = 0
	w.failures = 0
	w.overloads = 0
	w.retransmits = 0
	w.hedges = 0
}
