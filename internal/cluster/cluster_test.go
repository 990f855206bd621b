package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fireflyrpc/internal/clock"
	"fireflyrpc/internal/core"
	"fireflyrpc/internal/marshal"
	"fireflyrpc/internal/overload"
	"fireflyrpc/internal/proto"
	"fireflyrpc/internal/transport"
	"fireflyrpc/internal/wire"
)

// echoProc is the one procedure every test replica serves: int32 in,
// int32+1 out, with a per-replica configurable delay and failure switch.
const echoProc = 1

type testReplica struct {
	name  string
	node  *core.Node
	fail  atomic.Bool
	calls atomic.Int64
	// A call's service: the handler reports it on entered, waits on block
	// (a send releases one call, a close all of them), then spends delay
	// on clk; each step only when set.
	entered chan *testReplica
	block   chan struct{}
	clk     *clock.Manual
	delay   time.Duration
}

// replicaWorld builds n replicas of the Echo service on one exchange plus
// a caller node, returning everything a cluster.Client needs.
func replicaWorld(t *testing.T, n int, cfg proto.Config) (reps []*testReplica, caller *core.Node, addrs []string) {
	reps, caller, addrs, _ = replicaWorldEx(t, n, cfg)
	return reps, caller, addrs
}

func replicaWorldEx(t *testing.T, n int, cfg proto.Config) (reps []*testReplica, caller *core.Node, addrs []string, ex *transport.Exchange) {
	t.Helper()
	ex = transport.NewExchange()
	for i := 0; i < n; i++ {
		name := string(rune('a' + i))
		r := &testReplica{name: name}
		r.node = core.NewNode(ex.Port(name), cfg)
		r.node.Export(core.NewInterface("Echo", 1).
			Proc(echoProc, func(_ transport.Addr, d *marshal.Dec) ([]byte, error) {
				v := d.Int32()
				if err := d.Err(); err != nil {
					return nil, err
				}
				r.calls.Add(1)
				if r.entered != nil {
					r.entered <- r
				}
				if r.block != nil {
					<-r.block
				}
				if r.delay > 0 {
					r.clk.Advance(r.delay)
				}
				if r.fail.Load() {
					return nil, errors.New("injected failure")
				}
				return core.Reply(4, func(e *marshal.Enc) { e.PutInt32(v + 1) })
			}))
		reps = append(reps, r)
		addrs = append(addrs, name)
	}
	caller = core.NewNode(ex.Port("caller"), proto.Config{
		RetransInterval: 20 * time.Millisecond, MaxRetries: 8, Workers: 4,
	})
	t.Cleanup(func() {
		caller.Close()
		for _, r := range reps {
			r.node.Close()
		}
	})
	return reps, caller, addrs, ex
}

// armClock is a manual clock that reports each timer armed on it, so a
// test advances past a hedge delay only once the hedge timer is set.
type armClock struct {
	*clock.Manual
	armed chan struct{}
}

func (c armClock) AfterFunc(d time.Duration, f func()) clock.Timer {
	t := c.Manual.AfterFunc(d, f)
	c.armed <- struct{}{}
	return t
}

// waitFor waits until cond holds, failing the test after 2s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

func memParse(s string) (transport.Addr, error) { return transport.AddrOf(s), nil }

func newTestClient(t *testing.T, caller *core.Node, addrs []string, hedge HedgeConfig) *Client {
	t.Helper()
	c, err := New(context.Background(), Config{
		Node:      caller,
		Resolver:  Static(addrs),
		ParseAddr: memParse,
		Iface:     "Echo",
		Version:   1,
		Hedge:     hedge,
		Seed:      42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// echo drives one logical call and checks the reply.
func echo(t *testing.T, c *Client, ctx context.Context, v int32) error {
	t.Helper()
	err := echoErr(c, ctx, v)
	if errors.Is(err, errBadEcho) {
		t.Fatal(err)
	}
	return err
}

var errBadEcho = errors.New("wrong echo")

// echoErr is echo for a goroutine other than the test's: a wrong reply is
// an error wrapping errBadEcho.
func echoErr(c *Client, ctx context.Context, v int32) error {
	var out int32
	err := c.Call(ctx, echoProc, 4,
		func(e *marshal.Enc) { e.PutInt32(v) },
		func(d *marshal.Dec) { out = d.Int32() })
	if err == nil && out != v+1 {
		return fmt.Errorf("%w: echo(%d) = %d", errBadEcho, v, out)
	}
	return err
}

func TestP2CAvoidsSlowReplica(t *testing.T) {
	cfg := proto.Config{RetransInterval: 50 * time.Millisecond, MaxRetries: 8, Workers: 4}
	reps, caller, addrs := replicaWorld(t, 3, cfg)
	// "a" is the slow outlier: each of its calls takes 2 ms of the
	// client's manual clock, the others none.
	m := clock.NewManual()
	reps[0].clk, reps[0].delay = m, 2*time.Millisecond

	c := newTestClient(t, caller, addrs, HedgeConfig{})
	c.clk = m
	const calls = 200
	for i := 0; i < calls; i++ {
		if err := echo(t, c, context.Background(), int32(i)); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	s := c.Stats()
	var slow, fastMin int64 = 0, 1 << 62
	for _, r := range s.Replicas {
		if r.Addr == "a" {
			slow = r.Picks
		} else if r.Picks < fastMin {
			fastMin = r.Picks
		}
	}
	// The slow replica gets its histogram-warmup share and little more;
	// after warmup it loses every power-of-two-choices comparison.
	if slow >= calls/3 {
		t.Fatalf("slow replica picked %d/%d times; P2C should shun it", slow, calls)
	}
	if fastMin <= slow {
		t.Fatalf("a fast replica (%d picks) drew less traffic than the slow one (%d)", fastMin, slow)
	}
	if s.Calls != calls || s.Issued != calls {
		t.Fatalf("stats: calls=%d issued=%d, want %d each (unhedged)", s.Calls, s.Issued, calls)
	}
}

func TestEjectionAfterConsecutiveFailures(t *testing.T) {
	cfg := proto.Config{RetransInterval: 50 * time.Millisecond, MaxRetries: 8, Workers: 4}
	reps, caller, addrs := replicaWorld(t, 2, cfg)
	reps[1].fail.Store(true) // "b" rejects every call

	c, err := New(context.Background(), Config{
		Node: caller, Resolver: Static(addrs), ParseAddr: memParse,
		Iface: "Echo", Version: 1,
		EjectAfter: 2, EjectFor: time.Minute, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	failures := 0
	for i := 0; i < 40; i++ {
		if err := echo(t, c, context.Background(), int32(i)); err != nil {
			failures++
		}
	}
	// The bad replica can fail at most EjectAfter calls before ejection
	// parks it for the rest of the test (EjectFor ≫ test duration).
	if failures > 2 {
		t.Fatalf("%d calls failed; ejection should have capped this at 2", failures)
	}
	s := c.Stats()
	for _, r := range s.Replicas {
		if r.Addr == "b" {
			if r.Ejections < 1 || !r.Ejected {
				t.Fatalf("bad replica not ejected: %+v", r)
			}
		}
	}
	// With the bad replica ejected, the tail of the run must be clean.
	for i := 0; i < 20; i++ {
		if err := echo(t, c, context.Background(), int32(i)); err != nil {
			t.Fatalf("call after ejection failed: %v", err)
		}
	}
}

// TestHedgedCancelReachesLoser is the acceptance test for cross-server
// cancellation: when the primary of a hedged call answers while the backup
// is still mid-service, the backup's server gets the wire-level cancel
// notice, every time.
func TestHedgedCancelReachesLoser(t *testing.T) {
	cfg := proto.Config{RetransInterval: 50 * time.Millisecond, MaxRetries: 8, Workers: 4}
	reps, caller, addrs := replicaWorld(t, 3, cfg)
	entered := make(chan *testReplica, 1)
	for _, r := range reps {
		r.entered, r.block = entered, make(chan struct{})
	}
	const after = 5 * time.Millisecond
	c := newTestClient(t, caller, addrs, HedgeConfig{Enabled: true, After: after})
	m := armClock{clock.NewManual(), make(chan struct{}, 1)}
	c.clk = m
	const calls = 40
	for i := 0; i < calls; i++ {
		done := make(chan error, 1)
		go func() { done <- echoErr(c, context.Background(), int32(i)) }()
		<-m.armed
		primary := <-entered
		m.Advance(after) // the hedge fires while the primary is busy
		backup := <-entered
		before := backup.node.Conn().Stats().Cancels
		primary.block <- struct{}{}
		if err := <-done; err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		waitFor(t, "the cancel notice at the hedge's loser", func() bool {
			return backup.node.Conn().Stats().Cancels > before
		})
		backup.block <- struct{}{}
	}
	s := c.Stats()
	if s.HedgesFired != calls || s.HedgesCancelled != calls || s.HedgesWon != 0 {
		t.Fatalf("hedges fired/cancelled/won = %d/%d/%d, want %d/%d/0",
			s.HedgesFired, s.HedgesCancelled, s.HedgesWon, calls, calls)
	}
	if s.Issued != 2*calls {
		t.Fatalf("issued = %d, want %d", s.Issued, 2*calls)
	}
}

// TestHedgeRescuesSlowPrimary checks the latency story end to end: when
// the picked primary stalls, the backup answers and wins.
func TestHedgeRescuesSlowPrimary(t *testing.T) {
	cfg := proto.Config{RetransInterval: 100 * time.Millisecond, MaxRetries: 8, Workers: 4}
	reps, caller, addrs := replicaWorld(t, 2, cfg)
	stalled := make(chan *testReplica, 1)
	reps[0].entered, reps[0].block = stalled, make(chan struct{}) // "a" stalls until released

	const after = 500 * time.Microsecond
	c := newTestClient(t, caller, addrs, HedgeConfig{Enabled: true, After: after})
	m := armClock{clock.NewManual(), make(chan struct{}, 1)}
	c.clk = m
	rescued := 0
	for i := 0; i < 30; i++ {
		done := make(chan error, 1)
		go func() { done <- echoErr(c, context.Background(), int32(i)) }()
		<-m.armed
		select {
		case err := <-done: // "b" was the primary
			if err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
		case <-stalled:
			m.Advance(after)
			if err := <-done; err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
			rescued++
			reps[0].block <- struct{}{}
		}
	}
	s := c.Stats()
	if rescued == 0 {
		t.Fatal("the stalling replica was never the primary; the test exercised nothing")
	}
	if s.HedgesWon != int64(rescued) {
		t.Fatalf("hedges won = %d, want one per call the stalled primary held (%d): %+v", s.HedgesWon, rescued, s)
	}
}

// TestBudgetPropagatesThroughCluster proves the caller's ctx deadline
// rides the cluster path onto the wire as a FlagBudget hint: a replica
// running deadline admission sheds the cluster call — the only one whose
// budget it knows to be tight — when its queue is full of long-budget
// work.
func TestBudgetPropagatesThroughCluster(t *testing.T) {
	cfg := proto.Config{
		RetransInterval: 20 * time.Millisecond, MaxRetries: 8, Workers: 1,
		Admission: overload.Config{Policy: overload.Deadline, Capacity: 2},
	}
	reps, caller, addrs, ex := replicaWorldEx(t, 1, cfg)
	reps[0].block = make(chan struct{})

	// Fill the single worker plus the whole queue with generous-budget
	// calls from a dedicated node whose retransmission interval outlasts
	// the test: a queued call's retransmission arrives as a dup, gets
	// re-offered, and would perturb the admission queue mid-experiment.
	fillerNode := core.NewNode(ex.Port("filler"), proto.Config{
		RetransInterval: 5 * time.Second, MaxRetries: 3, Workers: 1,
	})
	defer fillerNode.Close()
	filler := fillerNode.Bind(transport.AddrOf(addrs[0]), "Echo", 1).NewClient()
	fctx, fcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer fcancel()
	// Offers are staggered: if all three landed at once, the third would
	// find the queue full before the worker took the first and shed a
	// filler instead of leaving the queue full for the experiment.
	var pendings []*core.Pending
	for i := 0; i < 3; i++ {
		p, err := filler.Go(fctx, echoProc, 4, func(e *marshal.Enc) { e.PutInt32(1) })
		if err != nil {
			t.Fatal(err)
		}
		pendings = append(pendings, p)
		waitFor(t, fmt.Sprintf("filler %d to settle", i), func() bool {
			// One filler executing (Served), then the queue fills behind it.
			s, ok := reps[0].node.Conn().AdmissionStats()
			return ok && s.Served >= 1 && s.Depth >= i
		})
	}

	// A cluster call with a tight deadline arrives at the full queue. The
	// deadline policy sheds whichever request has the least remaining
	// budget — this one, but only because the budget actually crossed the
	// wire. (Had the hint been dropped, the call would read as
	// budget-unknown, a queued filler would be evicted instead, and this
	// call would block until the handler is released.)
	c := newTestClient(t, caller, addrs, HedgeConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := echo(t, c, ctx, 9)
	if !errors.Is(err, proto.ErrOverloaded) {
		t.Fatalf("cluster call got %v, want ErrOverloaded via deadline admission", err)
	}
	if s, ok := reps[0].node.Conn().AdmissionStats(); !ok || s.ShedCapacity < 1 {
		t.Fatalf("admission stats = %+v ok=%v, want a capacity shed", s, ok)
	}

	close(reps[0].block)
	for _, p := range pendings {
		if err := p.Await(fctx, nil); err != nil {
			t.Fatalf("filler call failed after release: %v", err)
		}
	}
}

func TestFanoutQuorumAndStragglerCancel(t *testing.T) {
	cfg := proto.Config{RetransInterval: 50 * time.Millisecond, MaxRetries: 8, Workers: 4}
	reps, caller, addrs := replicaWorld(t, 3, cfg)
	reps[2].block = make(chan struct{}) // "c" hangs mid-call

	c := newTestClient(t, caller, addrs, HedgeConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	decoded := 0
	acks, err := c.Fanout(ctx, echoProc, 4,
		func(e *marshal.Enc) { e.PutInt32(5) },
		func(addr string, d *marshal.Dec) error {
			if v := d.Int32(); v != 6 {
				t.Errorf("replica %s replied %d", addr, v)
			}
			decoded++
			return nil
		}, 2)
	if err != nil {
		t.Fatalf("fanout: %v", err)
	}
	if acks != 2 || decoded != 2 {
		t.Fatalf("acks = %d (decoded %d), want 2", acks, decoded)
	}
	// The straggler must be told to stop: its server sees a cancel notice.
	waitFor(t, "the straggler's cancel notice", func() bool {
		return reps[2].node.Conn().Stats().Cancels != 0
	})
	close(reps[2].block)
}

// callTap counts the call frames its node sends, per destination.
type callTap struct {
	transport.Transport
	mu    sync.Mutex
	calls map[string]int
}

func (c *callTap) Send(dst transport.Addr, frame []byte) error {
	if h, _, err := wire.UnmarshalRPC(frame); err == nil && h.Type == wire.TypeCall {
		c.mu.Lock()
		c.calls[dst.String()]++
		c.mu.Unlock()
	}
	return c.Transport.Send(dst, frame)
}

// TestFanoutSendsEveryCopy: every copy of a Fanout leaves before any reply
// is awaited, so even a quorum of one — met by the first reply — finds a
// call frame sent to every replica by the time Fanout returns.
func TestFanoutSendsEveryCopy(t *testing.T) {
	cfg := proto.Config{RetransInterval: 50 * time.Millisecond, MaxRetries: 8, Workers: 4}
	_, _, addrs, ex := replicaWorldEx(t, 3, cfg)
	tap := &callTap{Transport: ex.Port("tapped"), calls: make(map[string]int)}
	caller := core.NewNode(tap, cfg)
	defer caller.Close()

	c := newTestClient(t, caller, addrs, HedgeConfig{})
	acks, err := c.Fanout(context.Background(), echoProc, 4,
		func(e *marshal.Enc) { e.PutInt32(5) }, nil, 1)
	if err != nil || acks != 1 {
		t.Fatalf("fanout: acks=%d err=%v", acks, err)
	}
	tap.mu.Lock()
	defer tap.mu.Unlock()
	for _, a := range addrs {
		if tap.calls[a] == 0 {
			t.Fatalf("no call frame to replica %s before Fanout returned: %v", a, tap.calls)
		}
	}
}

func TestFanoutNoQuorum(t *testing.T) {
	cfg := proto.Config{RetransInterval: 50 * time.Millisecond, MaxRetries: 8, Workers: 4}
	reps, caller, addrs := replicaWorld(t, 3, cfg)
	reps[1].fail.Store(true)
	reps[2].fail.Store(true)

	c := newTestClient(t, caller, addrs, HedgeConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	acks, err := c.Fanout(ctx, echoProc, 4,
		func(e *marshal.Enc) { e.PutInt32(5) }, nil, 2)
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("err = %v, want ErrNoQuorum", err)
	}
	if acks != 1 {
		t.Fatalf("acks = %d, want 1", acks)
	}
}

func TestStaticResolverRefreshKeepsState(t *testing.T) {
	cfg := proto.Config{RetransInterval: 50 * time.Millisecond, MaxRetries: 8, Workers: 4}
	_, caller, addrs := replicaWorld(t, 3, cfg)
	c := newTestClient(t, caller, addrs, HedgeConfig{})
	for i := 0; i < 10; i++ {
		if err := echo(t, c, context.Background(), int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Stats()
	// A re-resolve to the same set must keep every replica's accumulated
	// histogram and counters (same pointers, cheap same-set path).
	if _, err := c.resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	var nb, na int64
	for i := range before.Replicas {
		nb += before.Replicas[i].N
		na += after.Replicas[i].N
	}
	if na != nb || nb == 0 {
		t.Fatalf("resolve dropped histogram state: before n=%d after n=%d", nb, na)
	}
}
