package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"fireflyrpc/internal/marshal"
	"fireflyrpc/internal/proto"
	"fireflyrpc/internal/transport"
)

// stressBinding serves Add(a, b int32) int32 from a 16-worker server over
// the exchange and returns a caller's binding to it.
func stressBinding(t *testing.T) *Binding {
	t.Helper()
	cfg := proto.DefaultConfig()
	cfg.Workers = 16
	ex := transport.NewExchange()
	server := NewNode(ex.Port("server"), cfg)
	caller := NewNode(ex.Port("caller"), cfg)
	t.Cleanup(func() { caller.Close(); server.Close() })
	server.Export(NewInterface("stress", 1).
		Proc(1, func(_ transport.Addr, d *marshal.Dec) ([]byte, error) {
			a, b := d.Int32(), d.Int32()
			if d.Err() != nil {
				return nil, d.Err()
			}
			return Reply(4, func(e *marshal.Enc) { e.PutInt32(a + b) })
		}))
	return caller.Bind(server.Addr(), "stress", 1)
}

// TestConcurrentClientsStress runs 8 Clients of one Binding concurrently —
// each a goroutine with its own activity and reusable marshalling buffers —
// against a single server Node. Under -race this checks that the per-Client
// buffer reuse, the pooled dispatch decoder, and the worker pool compose
// without shared-state races.
func TestConcurrentClientsStress(t *testing.T) {
	binding := stressBinding(t)
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
				a, b := int32(id), int32(j)
				var sum int32
				err := cl.Call(1, 8, func(e *marshal.Enc) {
					e.PutInt32(a)
					e.PutInt32(b)
				}, func(d *marshal.Dec) {
					sum = d.Int32()
				})
				if err != nil {
					errs <- fmt.Errorf("client %d call %d: %w", id, j, err)
					return
				}
				if sum != a+b {
					errs <- fmt.Errorf("client %d call %d: got %d, want %d", id, j, sum, a+b)
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

// TestSharedClientGoAwait checks the contract a shared Client offers: Go
// and Await may be called from any goroutine, each Pending awaited once.
// 8 goroutines each start and await 500 calls on one Client, and every
// result must be the one its own call asked for (run under -race).
func TestSharedClientGoAwait(t *testing.T) {
	cl := stressBinding(t).NewClient()
	const goroutines, calls = 8, 500
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < calls; j++ {
				a, b := int32(id), int32(j)
				p, err := cl.Go(context.Background(), 1, 8, func(e *marshal.Enc) {
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
