package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"fireflyrpc/internal/marshal"
	"fireflyrpc/internal/proto"
	"fireflyrpc/internal/transport"
	"fireflyrpc/internal/wire"
)

// Procedures of the stress interface: a small call, and the paper's two
// maximum single-packet shapes.
const (
	procAdd       = 1 // Add(a, b int32) int32
	procMaxArg    = 2 // MaxArg(ARRAY 1440 OF CHAR)
	procMaxResult = 3 // MaxResult() ARRAY 1440 OF CHAR, byte i = i
)

const maxPayload = wire.MaxSinglePacketPayload

// stressBinding serves the stress interface from a 16-worker server over
// the exchange and returns the two nodes and a caller's binding to it.
func stressBinding(t *testing.T) (caller, server *Node, b *Binding) {
	t.Helper()
	cfg := proto.DefaultConfig()
	cfg.Workers = 16
	ex := transport.NewExchange()
	server = NewNode(ex.Port("server"), cfg)
	caller = NewNode(ex.Port("caller"), cfg)
	t.Cleanup(func() { caller.Close(); server.Close() })
	server.Export(NewInterface("stress", 1).
		Proc(procAdd, func(_ transport.Addr, d *marshal.Dec) ([]byte, error) {
			a, b := d.Int32(), d.Int32()
			if d.Err() != nil {
				return nil, d.Err()
			}
			return Reply(4, func(e *marshal.Enc) { e.PutInt32(a + b) })
		}).
		Proc(procMaxArg, func(_ transport.Addr, d *marshal.Dec) ([]byte, error) {
			d.AliasFixed(maxPayload)
			return nil, d.Err()
		}).
		Proc(procMaxResult, func(transport.Addr, *marshal.Dec) ([]byte, error) {
			return Reply(maxPayload, func(e *marshal.Enc) {
				buf := e.AliasFixed(maxPayload)
				for i := range buf {
					buf[i] = byte(i)
				}
			})
		}))
	return caller, server, caller.Bind(server.Addr(), "stress", 1)
}

// add calls Add(a, b) on cl and checks the sum.
func add(cl *Client, a, b int32) error {
	var sum int32
	err := cl.Call(procAdd, 8, func(e *marshal.Enc) {
		e.PutInt32(a)
		e.PutInt32(b)
	}, func(d *marshal.Dec) {
		sum = d.Int32()
	})
	if err == nil && sum != a+b {
		err = fmt.Errorf("Add(%d, %d) = %d", a, b, sum)
	}
	return err
}

// TestConcurrentClientsStress runs 8 Clients of one Binding concurrently —
// each a goroutine with its own reusable marshalling buffers — against a
// single server Node. Under -race this checks that the per-slot buffer
// reuse, the pooled dispatch decoder, and the worker pool compose without
// shared-state races.
func TestConcurrentClientsStress(t *testing.T) {
	_, _, binding := stressBinding(t)
	const clients = 8
	calls := 250
	if testing.Short() {
		calls = 50
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl := binding.NewClient()
			for j := 0; j < calls; j++ {
				if err := add(cl, int32(id), int32(j)); err != nil {
					errs <- fmt.Errorf("client %d call %d: %w", id, j, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMixedShapesStress runs 8 Clients of one Binding concurrently — each
// a goroutine mixing small calls with maximum-size arguments and results —
// against a single server Node, while another goroutine reads both Conns'
// Stats. Under -race this checks that the atomic stats compose with the
// single- and full-packet call paths.
func TestMixedShapesStress(t *testing.T) {
	caller, server, binding := stressBinding(t)
	const clients = 8
	calls := 300
	if testing.Short() {
		calls = 60
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl := binding.NewClient()
			buf := make([]byte, maxPayload)
			for j := 0; j < calls; j++ {
				var err error
				switch j % 3 {
				case 0:
					err = add(cl, int32(id), int32(j))
				case 1:
					err = cl.Call(procMaxArg, maxPayload, func(e *marshal.Enc) { e.PutFixedBytes(buf) }, nil)
				default:
					clear(buf)
					err = cl.Call(procMaxResult, 0, nil, func(d *marshal.Dec) { d.FixedBytes(buf) })
					if last := maxPayload - 1; err == nil && (buf[1] != 1 || buf[last] != byte(last)) {
						err = fmt.Errorf("MaxResult returned bytes %d..%d", buf[1], buf[last])
					}
				}
				if err != nil {
					errs <- fmt.Errorf("client %d call %d: %w", id, j, err)
					return
				}
			}
		}(i)
	}
	// Control-plane reads against the same Conns.
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
	if st := server.Conn().Stats(); st.CallsServed < int64(clients*calls) {
		t.Fatalf("served %d calls, want >= %d", st.CallsServed, clients*calls)
	}
}

// TestSharedClientGoAwait checks the contract a shared Client offers: Go
// and Await may be called from any goroutine, each Pending awaited once.
// 8 goroutines each start and await 500 calls on one Client, and every
// result must be the one its own call asked for (run under -race).
func TestSharedClientGoAwait(t *testing.T) {
	_, _, binding := stressBinding(t)
	cl := binding.NewClient()
	const goroutines, calls = 8, 500
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < calls; j++ {
				a, b := int32(id), int32(j)
				p, err := cl.Go(context.Background(), procAdd, 8, func(e *marshal.Enc) {
					e.PutInt32(a)
					e.PutInt32(b)
				})
				if err != nil {
					errs <- fmt.Errorf("goroutine %d go %d: %w", id, j, err)
					return
				}
				var sum int32
				if err := p.Await(context.Background(), func(d *marshal.Dec) { sum = d.Int32() }); err != nil {
					errs <- fmt.Errorf("goroutine %d await %d: %w", id, j, err)
					return
				}
				if sum != a+b {
					errs <- fmt.Errorf("goroutine %d call %d: got %d, want %d", id, j, sum, a+b)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestAsyncResultsCorrect checks that interleaved Go calls come back to
// the right Await. 8 goroutines share one Client; each keeps a window of
// calls with distinct arguments in flight, awaits them in issue order, and
// checks that every result is the one its own call asked for, with a
// blocking Call between windows (run under -race).
func TestAsyncResultsCorrect(t *testing.T) {
	_, _, binding := stressBinding(t)
	cl := binding.NewClient()
	const goroutines, rounds, window = 8, 60, 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ctx := context.Background()
			var pend [window]*Pending
			for r := 0; r < rounds; r++ {
				for w := range pend {
					a, b := int32(id), int32(r*window+w)
					p, err := cl.Go(ctx, procAdd, 8, func(e *marshal.Enc) {
						e.PutInt32(a)
						e.PutInt32(b)
					})
					if err != nil {
						errs <- fmt.Errorf("goroutine %d go %d/%d: %w", id, r, w, err)
						return
					}
					pend[w] = p
				}
				for w, p := range pend {
					var sum int32
					if err := p.Await(ctx, func(d *marshal.Dec) { sum = d.Int32() }); err != nil {
						errs <- fmt.Errorf("goroutine %d await %d/%d: %w", id, r, w, err)
						return
					}
					if want := int32(id + r*window + w); sum != want {
						errs <- fmt.Errorf("goroutine %d call %d/%d: got %d, want %d", id, r, w, sum, want)
						return
					}
				}
				if err := add(cl, int32(id), int32(-r)); err != nil {
					errs <- fmt.Errorf("goroutine %d round %d: %w", id, r, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
