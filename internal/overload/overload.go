// Package overload implements server-side admission control for the RPC
// dispatch path: a bounded queue between the receive path and the worker
// pool, with a pluggable policy deciding what to shed when demand exceeds
// capacity. Shedding is explicit — every dropped request is handed to a
// callback so the protocol layer can answer it with a rejection on the
// wire, letting the caller fail fast instead of burning its retry budget
// against a queue it will never clear.
//
// Policies:
//
//   - FIFO: serve oldest first; when full, reject the arriving request
//     (drop-tail). Simple, and the baseline that collapses under sustained
//     overload: every admitted request waits behind the full queue, so once
//     queueing delay exceeds the callers' deadlines the server does nothing
//     but serve the dead.
//   - LIFO: serve newest first; when full, shed the oldest queued request.
//     Freshest-first keeps some requests under their deadlines at the cost
//     of starving the oldest.
//   - Deadline: serve in FIFO order, but shed any request whose remaining
//     budget (carried on the wire) cannot cover the observed service time —
//     the request would be dead on arrival at the handler, so serving it
//     wastes capacity. When full, shed the queued request with the least
//     remaining budget. This is the policy that keeps goodput near capacity
//     at 2× saturation.
//
// The Deadline policy's service-time estimate is an EWMA of observed
// handler times. A shed request never runs, so it never corrects the
// estimate; a shed whose whole budget is below the estimate — a request
// that would have been shed unqueued — therefore decays it one EWMA step,
// so one slow outlier cannot shed every later request. A request that died
// waiting in the queue says nothing against the estimate and leaves it be:
// decaying on those lets late requests through under sustained overload.
//
// The queue is the protocol's only dispatch path: a server without an
// explicit admission bound still drains a FIFO queue of a fixed default
// capacity. It is also the scenario simulator's admission queue
// (internal/runbook), which hands NewQueue its kernel's virtual clock and
// drains with TryTake. The uncontended cost is kept to a lock, a ring-slot
// store and a condition signal: arrival and service clocks are read only
// where a policy or a reported service-time estimate consumes them.
package overload

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"fireflyrpc/internal/clock"
)

// Policy selects the admission/shedding discipline.
type Policy uint8

const (
	FIFO Policy = iota
	LIFO
	Deadline
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case LIFO:
		return "lifo"
	case Deadline:
		return "deadline"
	default:
		return "fifo"
	}
}

// ParsePolicy reads a policy name (fifo, lifo, deadline).
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(s) {
	case "fifo":
		return FIFO, nil
	case "lifo":
		return LIFO, nil
	case "deadline":
		return Deadline, nil
	}
	return FIFO, fmt.Errorf("overload: unknown policy %q (fifo, lifo, deadline)", s)
}

// Config picks a queue's policy and bounds its depth; NewQueue requires a
// positive Capacity.
type Config struct {
	Policy   Policy
	Capacity int
}

// Reason explains why a request was shed.
type Reason uint8

const (
	// ReasonCapacity: the queue was full and this request lost the
	// admission decision.
	ReasonCapacity Reason = iota
	// ReasonDeadline: the request's remaining budget cannot cover the
	// observed service time.
	ReasonDeadline
	// ReasonClosed: the queue was closed with the request still queued.
	ReasonClosed
)

func (r Reason) String() string {
	switch r {
	case ReasonDeadline:
		return "deadline"
	case ReasonClosed:
		return "closed"
	default:
		return "capacity"
	}
}

// Stats is a snapshot of one queue's counters.
type Stats struct {
	Policy        string  `json:"policy"`
	Capacity      int     `json:"capacity"`
	Depth         int     `json:"depth"`
	MaxDepth      int     `json:"max_depth"`
	Admitted      int64   `json:"admitted"`
	Served        int64   `json:"served"`
	ShedCapacity  int64   `json:"shed_capacity"`
	ShedDeadline  int64   `json:"shed_deadline"`
	ServiceEWMAUs float64 `json:"service_ewma_us"`
}

// entry is one queued request.
type entry[T any] struct {
	v         T
	arrivedNs int64
	budgetNs  int64 // remaining deadline budget at arrival; 0 = none known
}

// remaining computes the budget left at now; requests without budget
// information report a large value (they are never deadline-shed).
func (e entry[T]) remaining(now int64) int64 {
	if e.budgetNs <= 0 {
		return 1 << 62
	}
	return e.budgetNs - (now - e.arrivedNs)
}

// Queue is a bounded dispatch queue with policy-driven shedding. Offer
// never blocks; Take blocks until an item is available or the queue is
// closed. Every request leaves the queue exactly once: returned from Take,
// or handed to the shed callback (including at Close), so callers can
// maintain in-flight accounting on either path.
//
// Queued requests live in a ring, oldest first from head, that grows by
// doubling up to Capacity: popping either end is O(1) and steady state
// does not allocate.
type Queue[T any] struct {
	cfg    Config
	clk    clock.Clock
	origin time.Time // clk's reading at NewQueue; ages count from it
	onShed func(T, Reason)

	mu     sync.Mutex
	cond   *sync.Cond
	ring   []entry[T]
	head   int // ring index of the oldest queued request
	n      int // queued requests
	closed bool

	ewmaNs       float64
	admitted     int64
	served       int64
	shedCapacity int64
	shedDeadline int64
	maxDepth     int
}

// NewQueue builds a queue that ages requests on clk (the wall clock's
// readings subtract monotonically; a discrete-event simulation passes its
// virtual clock). onShed receives every shed request (called without the
// queue lock held; it may send on the network, or offer again).
func NewQueue[T any](cfg Config, clk clock.Clock, onShed func(T, Reason)) *Queue[T] {
	if cfg.Capacity <= 0 {
		panic("overload: NewQueue with non-positive capacity")
	}
	q := &Queue[T]{cfg: cfg, clk: clk, origin: clk.Now(), onShed: onShed}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// now is the clock's reading in nanoseconds since the queue was built.
func (q *Queue[T]) now() int64 { return int64(q.clk.Now().Sub(q.origin)) }

// slot is the i-th queued request, oldest first.
func (q *Queue[T]) slot(i int) *entry[T] { return &q.ring[(q.head+i)%len(q.ring)] }

// push queues e as the newest request, growing the ring when it is full.
func (q *Queue[T]) push(e entry[T]) {
	if q.n == len(q.ring) {
		grown := make([]entry[T], min(max(2*len(q.ring), 16), q.cfg.Capacity))
		for i := 0; i < q.n; i++ {
			grown[i] = *q.slot(i)
		}
		q.ring, q.head = grown, 0
	}
	*q.slot(q.n) = e
	q.n++
}

// remove takes out the i-th queued request, keeping the rest in order. The
// gap closes from the shorter side, so removing either end is O(1).
func (q *Queue[T]) remove(i int) entry[T] {
	e := *q.slot(i)
	if i < q.n/2 {
		for ; i > 0; i-- {
			*q.slot(i) = *q.slot(i - 1)
		}
		*q.slot(0) = entry[T]{}
		q.head = (q.head + 1) % len(q.ring)
	} else {
		for ; i < q.n-1; i++ {
			*q.slot(i) = *q.slot(i + 1)
		}
		*q.slot(q.n - 1) = entry[T]{}
	}
	q.n--
	return e
}

// Offer submits a request with its remaining deadline budget (0 = unknown).
// It returns false when the request itself was shed (the shed callback has
// already run for it).
func (q *Queue[T]) Offer(v T, budgetNs int64) bool {
	e := entry[T]{v: v, budgetNs: budgetNs}
	if q.cfg.Policy == Deadline {
		// Only the Deadline policy ages requests.
		e.arrivedNs = q.now()
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		q.onShed(v, ReasonClosed)
		return false
	}
	if q.n < q.cfg.Capacity {
		q.push(e)
		q.admitted++
		if q.n > q.maxDepth {
			q.maxDepth = q.n
		}
		q.mu.Unlock()
		q.cond.Signal()
		return true
	}
	// Full: pick the victim by policy.
	victimIdx := -1 // -1 = the arriving request
	switch q.cfg.Policy {
	case LIFO:
		victimIdx = 0 // shed the oldest
	case Deadline:
		// Shed whichever request — queued or arriving — has the least
		// remaining budget; capacity overflow is off the fast path, so the
		// linear scan is fine.
		now := e.arrivedNs
		least := e.remaining(now)
		for i := 0; i < q.n; i++ {
			if r := q.slot(i).remaining(now); r < least {
				least, victimIdx = r, i
			}
		}
	}
	var victim T
	admitted := victimIdx >= 0
	if admitted {
		victim = q.remove(victimIdx).v
		q.push(e)
		q.admitted++
	} else {
		victim = v
	}
	q.shedCapacity++
	q.mu.Unlock()
	if admitted {
		q.cond.Signal()
	}
	q.onShed(victim, ReasonCapacity)
	return admitted
}

// Take blocks for the next request to serve; ok is false once the queue is
// closed and drained. Under the Deadline policy it sheds — via the
// callback — every queued request whose remaining budget no longer covers
// the observed service time, so workers only receive requests that can
// still make their deadlines.
func (q *Queue[T]) Take() (v T, ok bool) { return q.take(true) }

// TryTake is Take without the wait: ok is false when no request is left to
// serve, after any deadline sheds.
func (q *Queue[T]) TryTake() (v T, ok bool) { return q.take(false) }

func (q *Queue[T]) take(wait bool) (v T, ok bool) {
	for {
		var sheds []T
		q.mu.Lock()
		for wait && q.n == 0 && !q.closed {
			q.cond.Wait()
		}
		var now int64
		if q.cfg.Policy == Deadline {
			now = q.now()
		}
		for q.n > 0 {
			var e entry[T]
			if q.cfg.Policy == LIFO {
				e = q.remove(q.n - 1)
			} else {
				e = q.remove(0)
			}
			if q.cfg.Policy == Deadline && q.ewmaNs > 0 && float64(e.remaining(now)) < q.ewmaNs {
				if float64(e.budgetNs) < q.ewmaNs {
					// Even unqueued this request looked dead: the
					// estimate is the suspect, and a shed never runs to
					// correct it, so decay it by one EWMA step.
					q.ewmaNs -= q.ewmaNs / 8
				}
				q.shedDeadline++
				sheds = append(sheds, e.v)
				continue
			}
			q.served++
			q.mu.Unlock()
			for _, s := range sheds {
				q.onShed(s, ReasonDeadline)
			}
			return e.v, true
		}
		closed := q.closed
		q.mu.Unlock()
		for _, s := range sheds {
			q.onShed(s, ReasonDeadline)
		}
		if closed || !wait {
			return v, false
		}
	}
}

// ObserveService feeds one handler execution time into the service-time
// estimate the Deadline policy sheds against (EWMA, α = 1/8 like the RTT
// estimator's mean term).
func (q *Queue[T]) ObserveService(d time.Duration) {
	q.mu.Lock()
	if q.ewmaNs == 0 {
		q.ewmaNs = float64(d)
	} else {
		q.ewmaNs += (float64(d) - q.ewmaNs) / 8
	}
	q.mu.Unlock()
}

// Close wakes every Take and sheds all still-queued requests with
// ReasonClosed.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	drained := make([]T, q.n)
	for i := range drained {
		drained[i] = q.slot(i).v
	}
	q.ring, q.head, q.n = nil, 0, 0
	q.mu.Unlock()
	q.cond.Broadcast()
	for _, v := range drained {
		q.onShed(v, ReasonClosed)
	}
}

// Stats snapshots the counters.
func (q *Queue[T]) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return Stats{
		Policy:        q.cfg.Policy.String(),
		Capacity:      q.cfg.Capacity,
		Depth:         q.n,
		MaxDepth:      q.maxDepth,
		Admitted:      q.admitted,
		Served:        q.served,
		ShedCapacity:  q.shedCapacity,
		ShedDeadline:  q.shedDeadline,
		ServiceEWMAUs: q.ewmaNs / 1e3,
	}
}
