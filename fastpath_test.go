package fireflyrpc

import (
	"context"
	"sync"
	"testing"

	"fireflyrpc/internal/proto"
	"fireflyrpc/internal/testsvc"
	"fireflyrpc/internal/transport"
)

// nullAllocBudget is the ceiling for heap allocations per single-packet
// Call over the in-process exchange, measured across the whole process
// (caller stub, protocol, transport, server stub). The fast path performs
// exactly 1 allocation per call — the completion channel — and the budget
// is pinned there: testing.AllocsPerRun truncates its average, so rare
// runtime noise (a GC cycle clearing a pool) does not trip it, while any
// new per-call allocation does.
const nullAllocBudget = 1

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestNullAllocBudget pins the single-packet fast path's allocation count:
// the Go analogue of the paper's §4.2 fast-path accounting, where every
// instruction on the Null() path was audited.
func TestNullAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the call path")
	}
	ex := transport.NewExchange()
	server := NewNode(ex.Port("server"), proto.DefaultConfig())
	caller := NewNode(ex.Port("caller"), proto.DefaultConfig())
	defer server.Close()
	defer caller.Close()
	server.Export(testsvc.ExportTest(benchImpl{}))
	client := testsvc.NewTestClient(caller.Bind(server.Addr(), testsvc.TestName, testsvc.TestVersion))

	// Warm the pools (frames, outCalls, server activity state, argument
	// buffers) so steady state is measured, not first-call setup.
	for i := 0; i < 100; i++ {
		if err := client.Null(); err != nil {
			t.Fatal(err)
		}
	}

	avg := testing.AllocsPerRun(200, func() {
		if err := client.Null(); err != nil {
			t.Fatal(err)
		}
	})
	if avg > nullAllocBudget {
		t.Fatalf("Null() allocates %.1f objects/call, budget is %d", avg, nullAllocBudget)
	}
	t.Logf("Null() allocates %.1f objects/call (budget %d)", avg, nullAllocBudget)
}

// TestAsyncNullAllocBudget pins the asynchronous fast path to the same
// allocation budget as the blocking one: Client.Go + Pending.Await over
// pooled slots must not cost more objects per call than Client.Call, or
// fan-out callers pay a hidden per-call tax the blocking path doesn't.
func TestAsyncNullAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the call path")
	}
	ex := transport.NewExchange()
	server := NewNode(ex.Port("server"), proto.DefaultConfig())
	caller := NewNode(ex.Port("caller"), proto.DefaultConfig())
	defer server.Close()
	defer caller.Close()
	server.Export(testsvc.ExportTest(benchImpl{}))
	client := caller.Bind(server.Addr(), testsvc.TestName, testsvc.TestVersion).NewClient()
	ctx := context.Background()

	const fanout = 8
	pendings := make([]*Pending, fanout)
	// Warm the pools: slots, activities, frames, outCalls, server state.
	for round := 0; round < 30; round++ {
		for i := range pendings {
			p, err := client.Go(ctx, testsvc.TestProcNull, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			pendings[i] = p
		}
		for _, p := range pendings {
			if err := p.Await(ctx, nil); err != nil {
				t.Fatal(err)
			}
		}
	}

	perBatch := testing.AllocsPerRun(100, func() {
		for i := range pendings {
			p, err := client.Go(ctx, testsvc.TestProcNull, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			pendings[i] = p
		}
		for _, p := range pendings {
			if err := p.Await(ctx, nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	perCall := perBatch / fanout
	if perCall > nullAllocBudget {
		t.Fatalf("async Null() allocates %.1f objects/call, budget is %d (blocking budget)", perCall, nullAllocBudget)
	}
	t.Logf("async Null() allocates %.1f objects/call with %d outstanding (budget %d)", perCall, fanout, nullAllocBudget)
}

// TestAsyncResultsCorrect sanity-checks the async API end to end through
// generated-stub marshalling: interleaved Go calls with distinct payloads
// come back to the right Await.
func TestAsyncResultsCorrect(t *testing.T) {
	ex := transport.NewExchange()
	server := NewNode(ex.Port("server"), proto.DefaultConfig())
	caller := NewNode(ex.Port("caller"), proto.DefaultConfig())
	defer server.Close()
	defer caller.Close()
	server.Export(testsvc.ExportTest(benchImpl{}))
	client := caller.Bind(server.Addr(), testsvc.TestName, testsvc.TestVersion).NewClient()
	ctx := context.Background()

	const fanout = 16
	for round := 0; round < 20; round++ {
		pendings := make([]*Pending, fanout)
		for i := 0; i < fanout; i++ {
			a, b := int32(round), int32(i)
			p, err := client.Go(ctx, testsvc.TestProcAdd4, 16, func(e *Enc) {
				e.PutInt32(a)
				e.PutInt32(b)
				e.PutInt32(10)
				e.PutInt32(100)
			})
			if err != nil {
				t.Fatal(err)
			}
			pendings[i] = p
		}
		for i, p := range pendings {
			var got int32
			if err := p.Await(ctx, func(d *Dec) { got = d.Int32() }); err != nil {
				t.Fatal(err)
			}
			want := int32(round) + int32(i) + 110
			if got != want {
				t.Fatalf("round %d call %d: Add4 = %d, want %d", round, i, got, want)
			}
		}
	}
}

// TestConcurrentClientsStress exercises the sharded-lock fast path from 8
// concurrent clients on one caller Conn — each its own activity, as the
// Firefly gave each thread its own call-table entry — mixed with Pings and
// Stats reads. Run with -race, this is the regression test for the lock
// split (calls/acts/pings) and the atomic stats conversion.
func TestConcurrentClientsStress(t *testing.T) {
	cfg := proto.DefaultConfig()
	cfg.Workers = 16
	ex := transport.NewExchange()
	server := NewNode(ex.Port("server"), cfg)
	caller := NewNode(ex.Port("caller"), cfg)
	defer server.Close()
	defer caller.Close()
	server.Export(testsvc.ExportTest(benchImpl{}))
	binding := caller.Bind(server.Addr(), testsvc.TestName, testsvc.TestVersion)

	const clients = 8
	calls := 300
	if testing.Short() {
		calls = 50
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl := testsvc.NewTestClient(binding)
			buf := make([]byte, 1440)
			for j := 0; j < calls; j++ {
				var err error
				switch j % 3 {
				case 0:
					err = cl.Null()
				case 1:
					err = cl.MaxArg(buf)
				default:
					err = cl.MaxResult(buf)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	// Concurrent control-plane traffic against the same Conn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			caller.Conn().Stats()
			server.Conn().Stats()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := server.Conn().Stats()
	if st.CallsServed < int64(clients*calls) {
		t.Fatalf("served %d calls, want >= %d", st.CallsServed, clients*calls)
	}
}
