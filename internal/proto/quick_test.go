package proto

import (
	"bytes"
	"context"
	"testing"
	"testing/quick"
	"time"

	"fireflyrpc/internal/clock"
	"fireflyrpc/internal/faultnet"
	"fireflyrpc/internal/transport"
	"fireflyrpc/internal/wire"
)

// Property: any payload round-trips through Call intact, for arbitrary
// sizes from empty to several fragments, even with loss and duplication.
func TestQuickRoundTripUnderFaults(t *testing.T) {
	ex := transport.NewExchange()
	prof := faultnet.Profile{
		Out: faultnet.Impair{Drop: 0.1, Dup: 0.15},
		In:  faultnet.Impair{Drop: 0.1, Dup: 0.15},
	}
	cfg := Config{RetransInterval: 10 * time.Millisecond, MaxRetries: 12, Workers: 4}
	caller := NewConn(faultnet.Wrap(ex.Port("caller"), prof, 3), cfg, nil)
	server := NewConn(ex.Port("server"), cfg, echoHandler)
	defer caller.Close()
	defer server.Close()
	sa := transport.AddrOf("server")

	act := caller.NewActivity()
	seq := uint32(0)
	f := func(size uint16, fill byte) bool {
		seq++
		n := int(size) % 4000
		msg := bytes.Repeat([]byte{fill}, n)
		res, err := caller.Call(context.Background(), sa, act, seq, 1, 1, msg, nil)
		if err != nil {
			t.Logf("seq %d (n=%d): %v", seq, n, err)
			return false
		}
		return len(res) == n+1 && bytes.Equal(res[:n], msg) && res[n] == 0xEE
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: sequence numbers from the same activity never execute twice,
// no matter how the transport duplicates frames.
func TestQuickExactlyOnceUnderDuplication(t *testing.T) {
	ex := transport.NewExchange()
	// Duplicate every frame in both directions.
	prof := faultnet.Profile{
		Out: faultnet.Impair{Dup: 1},
		In:  faultnet.Impair{Dup: 1},
	}
	executed := make(map[uint32]int)
	cfg := fastCfg()
	caller := NewConn(faultnet.Wrap(ex.Port("caller"), prof, 4), cfg, nil)
	server := NewConn(ex.Port("server"), cfg,
		func(_ transport.Addr, _ wire.TraceCtx, _ uint32, _ uint16, args []byte) ([]byte, error) {
			seq := uint32(args[0])<<8 | uint32(args[1])
			executed[seq]++
			return args, nil
		})
	defer caller.Close()
	defer server.Close()
	sa := transport.AddrOf("server")
	act := caller.NewActivity()
	for seq := uint32(1); seq <= 40; seq++ {
		args := []byte{byte(seq >> 8), byte(seq)}
		if _, err := caller.Call(context.Background(), sa, act, seq, 1, 1, args, nil); err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
	}
	// executed is written only from the single-worker... workers=4; but map
	// access races are prevented because duplicates of the SAME call are
	// suppressed before the handler, and calls of one activity are serial.
	for seq, n := range executed {
		if n != 1 {
			t.Errorf("seq %d executed %d times", seq, n)
		}
	}
	if len(executed) != 40 {
		t.Errorf("%d distinct calls executed, want 40", len(executed))
	}
}

// Property: interleaved activities with interleaved sequence numbers all
// complete with the right results.
func TestQuickManyActivities(t *testing.T) {
	ex := transport.NewExchange()
	cfg := fastCfg()
	caller := NewConn(ex.Port("caller"), cfg, nil)
	server := NewConn(ex.Port("server"), cfg, echoHandler)
	defer caller.Close()
	defer server.Close()
	sa := transport.AddrOf("server")

	type step struct {
		Act byte
		Msg byte
	}
	acts := map[byte]uint64{}
	seqs := map[byte]uint32{}
	f := func(s step) bool {
		id, ok := acts[s.Act]
		if !ok {
			id = caller.NewActivity()
			acts[s.Act] = id
		}
		seqs[s.Act]++
		res, err := caller.Call(context.Background(), sa, id, seqs[s.Act], 1, 1, []byte{s.Msg}, nil)
		return err == nil && len(res) == 2 && res[0] == s.Msg
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveRTTConverges(t *testing.T) {
	ex := transport.NewExchange()
	cfg := Config{RetransInterval: 200 * time.Millisecond, MaxRetries: 5, Workers: 2}
	caller := NewConn(ex.Port("caller"), cfg, nil)
	server := NewConn(ex.Port("server"), cfg, echoHandler)
	defer caller.Close()
	defer server.Close()
	sa := transport.AddrOf("server")

	if _, ok := caller.RTT(sa); ok {
		t.Fatal("estimate exists before any call")
	}
	act := caller.NewActivity()
	for seq := uint32(1); seq <= 10; seq++ {
		if _, err := caller.Call(context.Background(), sa, act, seq, 1, 1, []byte("x"), nil); err != nil {
			t.Fatal(err)
		}
	}
	srtt, ok := caller.RTT(sa)
	if !ok {
		t.Fatal("no RTT estimate after successful calls")
	}
	// In-process exchange round trips are well under a millisecond; the
	// smoothed estimate must be far below the configured 200 ms interval.
	if srtt <= 0 || srtt > 50*time.Millisecond {
		t.Fatalf("srtt = %v, want sub-50ms", srtt)
	}
	// The adaptive initial retransmission interval is below the ceiling but
	// at least the floor.
	iv := caller.channelOf(sa).rttInterval(cfg.RetransInterval/8, cfg.RetransInterval)
	if iv >= cfg.RetransInterval {
		t.Fatalf("adaptive interval %v did not drop below the ceiling %v", iv, cfg.RetransInterval)
	}
	if iv < cfg.RetransInterval/8 {
		t.Fatalf("adaptive interval %v under the floor", iv)
	}
}

func TestAdaptiveRTTSpeedsRecovery(t *testing.T) {
	// With a warm RTT estimate, a single lost call recovers in much less
	// than the configured (deliberately huge) interval. Every round trip
	// takes 1 ms of the manual clock, spent in the handler.
	ex := transport.NewExchange()
	cfg := Config{RetransInterval: 2 * time.Second, MaxRetries: 8, Workers: 2}
	m := clock.NewManual()
	ft := faultnet.Wrap(ex.Port("caller"), faultnet.Profile{}, 5)
	caller := newConn(ft, cfg, nil, m)
	server := newConn(ex.Port("server"), cfg, func(src transport.Addr, tc wire.TraceCtx, iface uint32, proc uint16, args []byte) ([]byte, error) {
		m.Advance(time.Millisecond)
		return echoHandler(src, tc, iface, proc, args)
	}, m)
	defer caller.Close()
	defer server.Close()
	sa := transport.AddrOf("server")
	act := caller.NewActivity()
	for seq := uint32(1); seq <= 5; seq++ {
		if _, err := caller.Call(context.Background(), sa, act, seq, 1, 1, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Lose the call, then heal the link before its retransmission.
	ft.Impairer().SetProfile(faultnet.Loss(1))
	start := m.Now()
	p, err := caller.goCall(context.Background(), sa, act, 6, 1, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ft.Impairer().SetProfile(faultnet.Profile{})
	stepRetrans(t, m, p, false)
	if _, err := p.Await(context.Background()); err != nil {
		t.Fatal(err)
	}
	if elapsed := m.Now().Sub(start); elapsed > time.Second {
		t.Fatalf("recovery took %v; adaptive retransmission should beat the 2s ceiling", elapsed)
	}
	if caller.Stats().Retransmits != 1 {
		t.Fatal("the lost call was not retransmitted once")
	}
}
