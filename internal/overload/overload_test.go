package overload

import (
	"sync"
	"testing"
	"time"

	"fireflyrpc/internal/clock"
)

// shedlog records the shed callback's deliveries.
type shedlog struct {
	mu   sync.Mutex
	shed []int
	why  []Reason
}

func (l *shedlog) fn(v int, r Reason) {
	l.mu.Lock()
	l.shed = append(l.shed, v)
	l.why = append(l.why, r)
	l.mu.Unlock()
}

func (l *shedlog) values() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]int(nil), l.shed...)
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
	}{{"fifo", FIFO}, {"LIFO", LIFO}, {"Deadline", Deadline}} {
		got, err := ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParsePolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParsePolicy("random"); err == nil {
		t.Error("ParsePolicy accepted an unknown policy")
	}
}

func TestFIFOOrderAndDropTail(t *testing.T) {
	var l shedlog
	q := NewQueue[int](Config{Policy: FIFO, Capacity: 3}, clock.Wall, l.fn)
	for i := 1; i <= 3; i++ {
		if !q.Offer(i, 0) {
			t.Fatalf("offer %d rejected below capacity", i)
		}
	}
	if q.Offer(4, 0) {
		t.Fatal("FIFO admitted past capacity")
	}
	if got := l.values(); len(got) != 1 || got[0] != 4 {
		t.Fatalf("FIFO shed %v, want the arriving request [4]", got)
	}
	for want := 1; want <= 3; want++ {
		v, ok := q.Take()
		if !ok || v != want {
			t.Fatalf("Take = %d, %t; want %d", v, ok, want)
		}
	}
	s := q.Stats()
	if s.Admitted != 3 || s.Served != 3 || s.ShedCapacity != 1 || s.MaxDepth != 3 {
		t.Fatalf("stats %+v", s)
	}
}

func TestLIFOServesNewestShedsOldest(t *testing.T) {
	var l shedlog
	q := NewQueue[int](Config{Policy: LIFO, Capacity: 3}, clock.Wall, l.fn)
	for i := 1; i <= 3; i++ {
		q.Offer(i, 0)
	}
	if !q.Offer(4, 0) {
		t.Fatal("LIFO must admit the fresh request, shedding the oldest")
	}
	if got := l.values(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("LIFO shed %v, want the oldest [1]", got)
	}
	v, ok := q.Take()
	if !ok || v != 4 {
		t.Fatalf("Take = %d, want the newest (4)", v)
	}
}

func TestDeadlineShedsLeastBudgetOnOverflow(t *testing.T) {
	var l shedlog
	q := NewQueue[int](Config{Policy: Deadline, Capacity: 3}, clock.Wall, l.fn)
	ms := int64(time.Millisecond)
	q.Offer(1, 100*ms)
	q.Offer(2, 5*ms) // least remaining budget: the victim
	q.Offer(3, 50*ms)
	if !q.Offer(4, 80*ms) {
		t.Fatal("arriving request with ample budget should displace the poorest")
	}
	if got := l.values(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("shed %v, want [2]", got)
	}
	// An arriving request that is itself the poorest is the victim.
	if q.Offer(5, 1*ms) {
		t.Fatal("poorest arriving request should be shed, not admitted")
	}
	if got := l.values(); len(got) != 2 || got[1] != 5 {
		t.Fatalf("shed %v, want [2 5]", got)
	}
}

func TestDeadlineShedsStaleAtDequeue(t *testing.T) {
	var l shedlog
	q := NewQueue[int](Config{Policy: Deadline, Capacity: 8}, clock.Wall, l.fn)
	// Service time estimate: 10ms per request.
	q.ObserveService(10 * time.Millisecond)
	q.Offer(1, int64(time.Millisecond))   // budget < EWMA: dead on arrival at the worker
	q.Offer(2, int64(time.Second))        // plenty
	q.Offer(3, 2*int64(time.Millisecond)) // also dead
	q.Offer(4, 0)                         // no budget info: never deadline-shed
	v, ok := q.Take()
	if !ok || v != 2 {
		t.Fatalf("Take = %d, want 2 (stale head shed first)", v)
	}
	if got := l.values(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("shed %v, want [1]", got)
	}
	v, ok = q.Take()
	if !ok || v != 4 {
		t.Fatalf("Take = %d, want 4 (3 deadline-shed, 4 has no budget info)", v)
	}
	s := q.Stats()
	if s.ShedDeadline != 2 || s.Served != 2 {
		t.Fatalf("stats %+v", s)
	}
}

// One slow first call must not wedge the queue: with the estimate at 1s,
// every 10ms-budget request looks dead, and a shed request never runs to
// correct the estimate. Shedding decays it until a request is served.
func TestDeadlineEstimateRecoversFromOutlier(t *testing.T) {
	var l shedlog
	q := NewQueue[int](Config{Policy: Deadline, Capacity: 64}, clock.Wall, l.fn)
	q.ObserveService(time.Second)
	for i := 1; i <= 40; i++ {
		q.Offer(i, 10*int64(time.Millisecond))
	}
	q.Offer(0, 0) // no budget: never deadline-shed, so Take cannot block
	v, ok := q.Take()
	if !ok || v == 0 {
		t.Fatalf("Take = %d, %t: every 10ms request was shed (%d sheds)", v, ok, len(l.values()))
	}
	if s := q.Stats(); s.ServiceEWMAUs >= 10000 {
		t.Fatalf("estimate %vus still above the 10ms budgets", s.ServiceEWMAUs)
	}
}

// Sustained 2× saturation on a manual clock: 2 workers × 10ms service
// against 24 closed-loop callers with 50ms budgets, each re-offering the
// moment its request is served or shed. The callers start staggered across
// one service time, so requests reach the head of the queue with any
// remaining budget. Most die waiting, and the head is always marginal: the
// estimate must not shrink on those sheds, or requests with less than a
// service time left get served and finish past their budgets.
func TestDeadlineSaturationServesNoneLate(t *testing.T) {
	const (
		workers = 2
		callers = 24
		service = 10 * int64(time.Millisecond)
		budget  = 50 * int64(time.Millisecond)
	)
	m := clock.NewManual()
	var now int64 // m's reading, in nanoseconds since the queue was built
	setNow := func(t int64) {
		m.Advance(time.Duration(t - now))
		now = t
	}
	offered := make([]int64, callers) // caller → when its request was offered
	var q *Queue[int]
	offer := func(c int) {
		offered[c] = now
		q.Offer(c, budget)
	}
	shed, served := 0, 0
	q = NewQueue(Config{Policy: Deadline, Capacity: callers}, m,
		func(c int, _ Reason) { shed++; offer(c) })
	var busy [workers]struct {
		caller int
		until  int64 // 0 = idle
	}
	started := 0 // caller c makes its first offer at c*service/callers
	for now < 2*int64(time.Second) {
		for w := range busy {
			if busy[w].until == 0 {
				if c, ok := q.TryTake(); ok {
					busy[w].caller, busy[w].until = c, now+service
				}
			}
		}
		next := -1 // the busy worker that finishes first
		for w := range busy {
			if busy[w].until != 0 && (next < 0 || busy[w].until < busy[next].until) {
				next = w
			}
		}
		if started < callers && (next < 0 || int64(started)*service/callers < busy[next].until) {
			setNow(int64(started) * service / callers)
			offer(started)
			started++
			continue
		}
		if next < 0 {
			t.Fatal("no request in service: every caller was shed at once")
		}
		b := &busy[next]
		setNow(b.until)
		if late := now - (offered[b.caller] + budget); late > 0 {
			t.Fatalf("caller %d served %v past its budget at t=%v (after %d served, %d shed)",
				b.caller, time.Duration(late), time.Duration(now), served, shed)
		}
		served++
		q.ObserveService(time.Duration(service))
		b.until = 0
		offer(b.caller)
	}
	if served < 150 || shed == 0 {
		t.Fatalf("served %d, shed %d in 2s: want about 200 served and the overload shed", served, shed)
	}
}

func TestDeadlineColdStartServesEverything(t *testing.T) {
	// Before any service observation the EWMA is zero: nothing is shed at
	// dequeue, however small its budget.
	q := NewQueue[int](Config{Policy: Deadline, Capacity: 4}, clock.Wall, func(int, Reason) {
		t.Error("cold-start queue shed a request")
	})
	q.Offer(1, 1)
	if v, ok := q.Take(); !ok || v != 1 {
		t.Fatalf("Take = %d, %t", v, ok)
	}
}

func TestTakeBlocksUntilOffer(t *testing.T) {
	q := NewQueue[int](Config{Policy: FIFO, Capacity: 2}, clock.Wall, func(int, Reason) {})
	got := make(chan int, 1)
	taking := make(chan struct{})
	go func() {
		close(taking)
		v, _ := q.Take()
		got <- v
	}()
	<-taking
	select {
	case v := <-got:
		t.Fatalf("Take returned %d from an empty queue", v)
	default:
	}
	// The taker may or may not have parked yet; either way the Offer is
	// what it returns.
	q.Offer(9, 0)
	select {
	case v := <-got:
		if v != 9 {
			t.Fatalf("got %d", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Take did not wake on Offer")
	}
}

func TestCloseDrainsAndUnblocks(t *testing.T) {
	var l shedlog
	q := NewQueue[int](Config{Policy: FIFO, Capacity: 4}, clock.Wall, l.fn)
	q.Offer(1, 0)
	q.Offer(2, 0)
	done := make(chan bool, 1)
	drained := make(chan struct{})
	go func() {
		// Drain the two queued items, then block until Close.
		q.Take()
		q.Take()
		drained <- struct{}{}
		_, ok := q.Take()
		done <- ok
	}()
	<-drained
	q.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Take returned ok after Close with an empty queue")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock Take")
	}
	// Requests offered after Close are shed with ReasonClosed.
	if q.Offer(3, 0) {
		t.Fatal("Offer succeeded after Close")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.why) != 1 || l.why[0] != ReasonClosed {
		t.Fatalf("sheds %v / %v, want one ReasonClosed", l.shed, l.why)
	}
}

func TestCloseShedsQueued(t *testing.T) {
	var l shedlog
	q := NewQueue[int](Config{Policy: FIFO, Capacity: 4}, clock.Wall, l.fn)
	q.Offer(1, 0)
	q.Offer(2, 0)
	q.Close()
	if got := l.values(); len(got) != 2 {
		t.Fatalf("Close shed %v, want both queued requests", got)
	}
	for i, r := range l.why {
		if r != ReasonClosed {
			t.Fatalf("shed %d reason %v", i, r)
		}
	}
}

func TestObserveServiceEWMA(t *testing.T) {
	q := NewQueue[int](Config{Policy: Deadline, Capacity: 1}, clock.Wall, func(int, Reason) {})
	q.ObserveService(8 * time.Millisecond)
	if got := q.Stats().ServiceEWMAUs; got != 8000 {
		t.Fatalf("first observation EWMA %vus, want 8000", got)
	}
	q.ObserveService(16 * time.Millisecond)
	if got := q.Stats().ServiceEWMAUs; got != 9000 { // 8000 + (16000-8000)/8
		t.Fatalf("EWMA %vus, want 9000", got)
	}
}

// The ring keeps arrival order across wrap-around and growth, and does not
// allocate in steady state.
func TestRingOrderAndSteadyStateAllocs(t *testing.T) {
	for _, p := range []Policy{FIFO, LIFO, Deadline} {
		q := NewQueue[int](Config{Policy: p, Capacity: 40}, clock.Wall, func(int, Reason) {})
		take := func(want int) {
			t.Helper()
			if v, ok := q.Take(); !ok || v != want {
				t.Fatalf("%v: Take = %d, %t; want %d", p, v, ok, want)
			}
		}
		// Offer three, take two: the head walks round the ring while the
		// depth climbs through each growth step.
		for r := 0; r < 30; r++ {
			for i := 0; i < 3; i++ {
				q.Offer(3*r+i, 0)
			}
			if p == LIFO {
				take(3*r + 2)
				take(3*r + 1)
			} else {
				take(2 * r)
				take(2*r + 1)
			}
		}
		for i := 0; i < 30; i++ {
			if p == LIFO {
				take(3 * (29 - i))
			} else {
				take(60 + i)
			}
		}
		if a := testing.AllocsPerRun(100, func() {
			q.Offer(0, 0)
			q.Take()
		}); a != 0 {
			t.Fatalf("%v: steady-state Offer+Take allocates %v", p, a)
		}
	}

	// A Deadline victim in the middle of a wrapped ring leaves the others
	// in order.
	var l shedlog
	q := NewQueue[int](Config{Policy: Deadline, Capacity: 4}, clock.Wall, l.fn)
	ms := int64(time.Millisecond)
	for i := 0; i < 4; i++ {
		q.Offer(i, 100*ms)
	}
	q.Take()
	q.Take()
	q.Offer(4, 5*ms) // wraps to slot 0: the poorest
	q.Offer(5, 100*ms)
	q.Offer(6, 100*ms) // full: displaces 4
	if got := l.values(); len(got) != 1 || got[0] != 4 {
		t.Fatalf("shed %v, want [4]", got)
	}
	for _, want := range []int{2, 3, 5, 6} {
		if v, _ := q.Take(); v != want {
			t.Fatalf("Take = %d, want %d", v, want)
		}
	}
}

// Concurrent producers and consumers: every offered request leaves the
// queue exactly once — served or shed — under race detection.
func TestConcurrentExactlyOnce(t *testing.T) {
	var shedN sync.Map
	var shedCount int64
	var mu sync.Mutex
	q := NewQueue[int](Config{Policy: LIFO, Capacity: 16}, clock.Wall, func(v int, _ Reason) {
		mu.Lock()
		shedCount++
		mu.Unlock()
		if _, dup := shedN.LoadOrStore(v, true); dup {
			t.Errorf("request %d shed twice", v)
		}
	})
	const producers, perProducer = 4, 200
	var served sync.Map
	var servedCount int64
	var consumers sync.WaitGroup
	for c := 0; c < 3; c++ {
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			for {
				v, ok := q.Take()
				if !ok {
					return
				}
				if _, dup := served.LoadOrStore(v, true); dup {
					t.Errorf("request %d served twice", v)
				}
				mu.Lock()
				servedCount++
				mu.Unlock()
			}
		}()
	}
	var producersWG sync.WaitGroup
	for p := 0; p < producers; p++ {
		producersWG.Add(1)
		go func(p int) {
			defer producersWG.Done()
			for i := 0; i < perProducer; i++ {
				q.Offer(p*perProducer+i, 0)
			}
		}(p)
	}
	producersWG.Wait()
	q.Close() // sheds whatever the consumers have not taken

	consumers.Wait()
	mu.Lock()
	total := servedCount + shedCount
	mu.Unlock()
	if want := int64(producers * perProducer); total != want {
		t.Fatalf("served %d + shed %d = %d, want exactly %d", servedCount, shedCount, total, want)
	}
	// No request may appear in both sets.
	served.Range(func(k, _ any) bool {
		if _, both := shedN.Load(k); both {
			t.Errorf("request %v both served and shed", k)
		}
		return true
	})
}
