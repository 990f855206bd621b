// Package clock is the one seam through which proto, overload, cluster
// and registry read time and arm timers. Wall is the time package; Manual
// moves only when a test advances it, so retransmission, timeout and
// eviction tests run in microseconds without sleeping. Unlike sim.Kernel,
// which runs one event at a time on one goroutine, a Clock is safe for
// concurrent use: proto arms timers from several goroutines at once.
package clock

import (
	"slices"
	"sort"
	"sync"
	"time"
)

// Clock tells the time and runs functions after a delay.
type Clock interface {
	// Now returns the current time. Readings of one clock subtract into
	// elapsed time; the wall clock's carry a monotonic reading.
	Now() time.Time
	// AfterFunc runs f on its own goroutine once d has elapsed, as
	// time.AfterFunc does; Manual runs it inside Advance.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is the handle AfterFunc returns. Stop and Reset mean what they do
// on a *time.Timer made by time.AfterFunc.
type Timer interface {
	Stop() bool
	Reset(d time.Duration) bool
}

// Wall is the time package: Now is time.Now and a Timer is a *time.Timer.
var Wall Clock = wall{}

type wall struct{}

func (wall) Now() time.Time                            { return time.Now() }
func (wall) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// Every runs f on clk every d, the first time d from now, until the
// returned stop function is called. Runs do not overlap, and once stop
// returns none is in progress and none follows.
func Every(clk Clock, d time.Duration, f func()) (stop func()) {
	var mu sync.Mutex // orders the timer's creation before its first run
	mu.Lock()
	defer mu.Unlock()
	var t Timer
	t = clk.AfterFunc(d, func() {
		mu.Lock()
		defer mu.Unlock()
		if t != nil {
			f()
			t.Reset(d)
		}
	})
	return func() {
		mu.Lock()
		defer mu.Unlock()
		if t != nil {
			t.Stop()
			t = nil
		}
	}
}

// Manual is a clock that stands still until Advance moves it. It starts at
// the wall clock's reading when made, without the monotonic part, so it
// never reads earlier than a wall reading taken before it (proto's stage
// stamps count from one).
type Manual struct {
	mu     sync.Mutex
	now    time.Time
	timers []*manualTimer // armed, by due time, then arming order
}

type manualTimer struct {
	m    *Manual
	f    func()
	when time.Time
}

// NewManual returns a Manual clock with no timers armed.
func NewManual() *Manual { return &Manual{now: time.Now().Round(0)} }

// Now returns the clock's current time.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// AfterFunc arms f to run once the clock has advanced by d; a d of zero or
// less falls due at once and runs in the next Advance.
func (m *Manual) AfterFunc(d time.Duration, f func()) Timer {
	t := &manualTimer{m: m, f: f}
	t.Reset(d)
	return t
}

// Advance moves the clock forward by d. Each function that falls due runs
// in order of due time, then arming order, with the clock at its due time
// and its lock not held, so a function may read the clock and arm, reset or
// stop timers; one that falls due within d runs in this Advance too.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	end := m.now.Add(d)
	for len(m.timers) > 0 && !m.timers[0].when.After(end) {
		t := m.timers[0]
		m.timers = slices.Delete(m.timers, 0, 1)
		if t.when.After(m.now) {
			m.now = t.when
		}
		m.mu.Unlock()
		t.f()
		m.mu.Lock()
	}
	if end.After(m.now) {
		m.now = end
	}
	m.mu.Unlock()
}

// disarm takes t off the armed timers, reporting whether it was armed
// (m.mu held).
func (m *Manual) disarm(t *manualTimer) bool {
	i := slices.Index(m.timers, t)
	if i >= 0 {
		m.timers = slices.Delete(m.timers, i, i+1)
	}
	return i >= 0
}

func (t *manualTimer) Stop() bool {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	return t.m.disarm(t)
}

func (t *manualTimer) Reset(d time.Duration) bool {
	m := t.m
	m.mu.Lock()
	defer m.mu.Unlock()
	armed := m.disarm(t)
	t.when = m.now.Add(d)
	i := sort.Search(len(m.timers), func(i int) bool { return t.when.Before(m.timers[i].when) })
	m.timers = slices.Insert(m.timers, i, t)
	return armed
}
