package proto

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"fireflyrpc/internal/transport"
	"fireflyrpc/internal/wire"
)

// TestConcurrentActivitiesStress drives one caller Conn from 8 concurrent
// activities (the Firefly's threads-sharing-one-machine shape), mixing
// single-packet and fragmented calls with Pings and Stats reads. Under
// -race this is the regression test for the sharded locks (callsMu /
// actsMu / pingsMu), the pooled outCall and frame reuse, and the atomic
// stat counters.
func TestConcurrentActivitiesStress(t *testing.T) {
	ex := transport.NewExchange()
	cfg := DefaultConfig()
	cfg.Workers = 16
	server := NewConn(ex.Port("server"), cfg, func(_ transport.Addr, _ wire.TraceCtx, _ uint32, _ uint16, args []byte) ([]byte, error) {
		out := make([]byte, len(args))
		copy(out, args)
		return out, nil
	})
	defer server.Close()
	caller := NewConn(ex.Port("caller"), cfg, nil)
	defer caller.Close()
	dst := server.LocalAddr()

	const clients = 8
	calls := 200
	if testing.Short() {
		calls = 40
	}
	big := bytes.Repeat([]byte("frag"), 2000) // ~8 KiB: forces fragmentation

	var wg sync.WaitGroup
	errs := make(chan error, clients+2)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			activity := caller.NewActivity()
			var resBuf []byte
			for seq := uint32(1); seq <= uint32(calls); seq++ {
				args := []byte{byte(id), byte(seq), byte(seq >> 8)}
				if seq%17 == 0 {
					args = big // occasionally exercise the fragment path
				}
				res, err := caller.Call(context.Background(), dst, activity, seq, 1, 1, args, resBuf)
				if err != nil {
					errs <- fmt.Errorf("client %d seq %d: %w", id, seq, err)
					return
				}
				if !bytes.Equal(res, args) {
					errs <- fmt.Errorf("client %d seq %d: echo mismatch (%d vs %d bytes)", id, seq, len(res), len(args))
					return
				}
				resBuf = res[:0] // reuse the result buffer, as core.Client does
			}
		}(i)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			if err := caller.Ping(dst, time.Second); err != nil {
				errs <- fmt.Errorf("ping: %w", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			caller.Stats()
			server.Stats()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := server.Stats()
	if st.CallsServed < int64(clients*calls) {
		t.Fatalf("served %d calls, want >= %d", st.CallsServed, clients*calls)
	}
}
