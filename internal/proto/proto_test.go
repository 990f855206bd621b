package proto

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fireflyrpc/internal/faultnet"
	"fireflyrpc/internal/transport"
	"fireflyrpc/internal/wire"
)

// echoHandler returns its arguments with a marker byte appended.
func echoHandler(src transport.Addr, _ wire.TraceCtx, iface uint32, proc uint16, args []byte) ([]byte, error) {
	out := append([]byte(nil), args...)
	return append(out, 0xEE), nil
}

func pair(t *testing.T, ex *transport.Exchange, cfg Config, h Handler) (caller, server *Conn, serverAddr transport.Addr) {
	t.Helper()
	cp := ex.Port("caller")
	sp := ex.Port("server")
	caller = NewConn(cp, cfg, nil)
	server = NewConn(sp, cfg, h)
	t.Cleanup(func() {
		caller.Close()
		server.Close()
	})
	return caller, server, transport.AddrOf("server")
}

// goCall starts an asynchronous call into a fresh handle, for tests that
// hold many calls in flight.
func (c *Conn) goCall(ctx context.Context, dst transport.Addr, activity uint64, seq uint32,
	iface uint32, proc uint16, args []byte, resBuf []byte) (*Pending, error) {
	p := new(Pending)
	if err := c.StartCall(ctx, dst, activity, seq, iface, proc, args, resBuf, p); err != nil {
		return nil, err
	}
	return p, nil
}

func fastCfg() Config {
	return Config{RetransInterval: 20 * time.Millisecond, MaxRetries: 8, Workers: 4}
}

// faultyPair is pair with the caller's port wrapped in a faultnet profile,
// so both its outgoing calls and incoming results cross the impaired link.
func faultyPair(t *testing.T, ex *transport.Exchange, cfg Config, h Handler, prof faultnet.Profile, seed uint64) (caller, server *Conn, serverAddr transport.Addr, ft *faultnet.Transport) {
	t.Helper()
	ft = faultnet.Wrap(ex.Port("caller"), prof, seed)
	caller = NewConn(ft, cfg, nil)
	server = NewConn(ex.Port("server"), cfg, h)
	t.Cleanup(func() {
		caller.Close() // closes ft, which closes the underlying port
		server.Close()
	})
	return caller, server, transport.AddrOf("server"), ft
}

func TestFastPathSingleRoundTrip(t *testing.T) {
	ex := transport.NewExchange()
	caller, server, sa := pair(t, ex, fastCfg(), echoHandler)
	act := caller.NewActivity()
	res, err := caller.Call(context.Background(), sa, act, 1, 7, 3, []byte("hello"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "hello\xee" {
		t.Fatalf("result %q", res)
	}
	cs, ss := caller.Stats(), server.Stats()
	if cs.Retransmits != 0 || ss.DupCalls != 0 {
		t.Errorf("fast path had retransmits/dups: %+v %+v", cs, ss)
	}
	if cs.AcksSent != 0 && ss.AcksSent != 0 {
		t.Errorf("fast path sent explicit acks: %+v %+v", cs, ss)
	}
	if cs.CallsCompleted != 1 || ss.CallsServed != 1 {
		t.Errorf("counters: %+v %+v", cs, ss)
	}
}

func TestEmptyArgsAndResult(t *testing.T) {
	ex := transport.NewExchange()
	caller, _, sa := pair(t, ex, fastCfg(),
		func(transport.Addr, wire.TraceCtx, uint32, uint16, []byte) ([]byte, error) { return nil, nil })
	res, err := caller.Call(context.Background(), sa, caller.NewActivity(), 1, 1, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("result %v, want empty", res)
	}
}

func TestLargeArgumentFragmentation(t *testing.T) {
	ex := transport.NewExchange()
	caller, server, sa := pair(t, ex, fastCfg(), echoHandler)
	args := make([]byte, 5000) // 4 fragments at 1440
	for i := range args {
		args[i] = byte(i * 13)
	}
	res, err := caller.Call(context.Background(), sa, caller.NewActivity(), 1, 1, 1, args, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res[:len(args)], args) || res[len(args)] != 0xEE {
		t.Fatal("fragmented args mangled")
	}
	if server.Stats().AcksSent == 0 {
		t.Error("multi-fragment call should produce explicit acks")
	}
}

func TestLargeResultFragmentation(t *testing.T) {
	ex := transport.NewExchange()
	big := make([]byte, 10000)
	for i := range big {
		big[i] = byte(i)
	}
	caller, _, sa := pair(t, ex, fastCfg(),
		func(transport.Addr, wire.TraceCtx, uint32, uint16, []byte) ([]byte, error) { return big, nil })
	res, err := caller.Call(context.Background(), sa, caller.NewActivity(), 1, 1, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res, big) {
		t.Fatal("fragmented result mangled")
	}
	if caller.Stats().AcksSent == 0 {
		t.Error("multi-fragment result should be acked by the caller")
	}
}

func TestOversizeRejected(t *testing.T) {
	ex := transport.NewExchange()
	caller, _, sa := pair(t, ex, fastCfg(), echoHandler)
	_, err := caller.Call(context.Background(), sa, caller.NewActivity(), 1, 1, 1,
		make([]byte, maxFragments*wire.MaxSinglePacketPayload+1), nil)
	if err != ErrTooLarge {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestLossRecovery(t *testing.T) {
	ex := transport.NewExchange()
	caller, server, sa, _ := faultyPair(t, ex, fastCfg(), echoHandler,
		faultnet.Loss(0.2), 1)
	act := caller.NewActivity()
	for seq := uint32(1); seq <= 20; seq++ {
		msg := []byte(fmt.Sprintf("call-%d", seq))
		res, err := caller.Call(context.Background(), sa, act, seq, 1, 1, msg, nil)
		if err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
		if !bytes.Equal(res[:len(msg)], msg) {
			t.Fatalf("seq %d corrupted", seq)
		}
	}
	if caller.Stats().Retransmits == 0 {
		t.Error("no retransmissions despite loss")
	}
	// Every call must have executed exactly once despite retransmission.
	if got := server.Stats().CallsServed; got != 20 {
		t.Errorf("server executed %d calls, want exactly 20", got)
	}
}

// TestLossyFragmentedCalls runs 21-fragment calls and results — both
// directions stop-and-wait — across a link that drops, duplicates and
// reorders frames each way: every call must execute once and come back
// byte-exact.
func TestLossyFragmentedCalls(t *testing.T) {
	ex := transport.NewExchange()
	impair := faultnet.Impair{Drop: 0.15, Dup: 0.1, Reorder: 0.1}
	prof := faultnet.Profile{Out: impair, In: impair}
	cfg := fastCfg()
	cfg.RetransInterval = 5 * time.Millisecond
	cfg.MaxRetries = 12
	caller, server, sa, ft := faultyPair(t, ex, cfg, echoHandler, prof, 2)
	act := caller.NewActivity()
	args := make([]byte, 20*wire.MaxSinglePacketPayload+100)
	for i := range args {
		args[i] = byte(i * 31)
	}
	for seq := uint32(1); seq <= 8; seq++ {
		res, err := caller.Call(context.Background(), sa, act, seq, 1, 1, args, nil)
		if err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
		if !bytes.Equal(res[:len(args)], args) {
			t.Fatalf("seq %d corrupted", seq)
		}
	}
	if got := server.Stats().CallsServed; got != 8 {
		t.Errorf("server executed %d calls, want exactly 8 (duplicate suppression)", got)
	}
	for _, dir := range []faultnet.Dir{faultnet.DirOut, faultnet.DirIn} {
		if fs := ft.Impairer().Stats(dir); fs.Reordered == 0 || fs.Dups == 0 || fs.Drops == 0 {
			t.Errorf("direction %v impaired too little to test anything: %+v", dir, fs)
		}
	}
}

func TestDuplicateCallAnsweredFromRetainedResult(t *testing.T) {
	ex := transport.NewExchange()
	var executions atomic.Int64
	caller, server, sa := pair(t, ex, fastCfg(),
		func(_ transport.Addr, _ wire.TraceCtx, _ uint32, _ uint16, args []byte) ([]byte, error) {
			executions.Add(1)
			return []byte("answer"), nil
		})
	act := caller.NewActivity()
	if _, err := caller.Call(context.Background(), sa, act, 1, 1, 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Manually retransmit the same call (simulating a lost result): the
	// server must resend the retained result without re-executing.
	h := wire.RPCHeader{
		Type: wire.TypeCall, Activity: act, Seq: 1, FragCount: 1,
		Flags: wire.FlagLastFrag | wire.FlagPleaseAck,
	}
	cp := ex.Port("probe")
	defer cp.Close()
	// Send from the caller's own port so the server sees the same source.
	// Use the caller conn's transport via another Call? Instead: direct.
	if err := sendRaw(ex, "caller", "server", buildFrame(h, nil)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if executions.Load() != 1 {
		t.Fatalf("duplicate call re-executed: %d", executions.Load())
	}
	if server.Stats().ResultRetrans == 0 {
		t.Fatal("retained result not retransmitted")
	}
}

// sendRaw injects a frame into the exchange as if from srcName.
func sendRaw(ex *transport.Exchange, srcName, dstName string, frame []byte) error {
	// The exchange delivers by port name; we need a port with the same
	// name as src. Reuse reflection-free trick: deliver directly through a
	// fresh exchange API — simplest is to make the test's frame appear to
	// come from the caller by sending from its own port, which we cannot
	// reach here. Instead, Exchange routes purely by dst, and the server
	// keys activities by src string, so we must spoof src. We do that by
	// attaching a raw port whose name matches srcName on a second exchange
	// — not possible. So: send from a port literally named srcName is the
	// only way; since "caller" exists, we go through it via SendFrom.
	return ex.SendFrom(srcName, dstName, frame)
}

func TestInProgressAckResetsPatience(t *testing.T) {
	ex := transport.NewExchange()
	release := make(chan struct{})
	cfg := Config{RetransInterval: 15 * time.Millisecond, MaxRetries: 3, Workers: 2}
	caller, server, sa := pair(t, ex, cfg,
		func(transport.Addr, wire.TraceCtx, uint32, uint16, []byte) ([]byte, error) {
			<-release
			return []byte("slow"), nil
		})
	// The call takes ~20 retransmission intervals; MaxRetries is only 3,
	// so it succeeds only because in-progress acks keep resetting patience.
	go func() {
		time.Sleep(300 * time.Millisecond)
		close(release)
	}()
	res, err := caller.Call(context.Background(), sa, caller.NewActivity(), 1, 1, 1, nil, nil)
	if err != nil {
		t.Fatalf("slow call failed: %v", err)
	}
	if string(res) != "slow" {
		t.Fatalf("result %q", res)
	}
	if server.Stats().InProgressAcks == 0 {
		t.Fatal("no in-progress acks were sent")
	}
}

func TestRejectUnknown(t *testing.T) {
	ex := transport.NewExchange()
	caller, _, sa := pair(t, ex, fastCfg(),
		func(transport.Addr, wire.TraceCtx, uint32, uint16, []byte) ([]byte, error) {
			return nil, errors.New("no such procedure")
		})
	_, err := caller.Call(context.Background(), sa, caller.NewActivity(), 1, 9, 9, nil, nil)
	if err != ErrRejected {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
}

func TestCallToNobodyTimesOut(t *testing.T) {
	ex := transport.NewExchange()
	cp := ex.Port("lonely")
	caller := NewConn(cp, Config{RetransInterval: 5 * time.Millisecond, MaxRetries: 3, Workers: 1}, nil)
	defer caller.Close()
	start := time.Now()
	_, err := caller.Call(context.Background(), transport.AddrOf("ghost"), caller.NewActivity(), 1, 1, 1, nil, nil)
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout took too long")
	}
}

func TestCallerWithoutHandlerRejectsIncoming(t *testing.T) {
	ex := transport.NewExchange()
	a := NewConn(ex.Port("a"), fastCfg(), nil)
	b := NewConn(ex.Port("b"), fastCfg(), nil)
	defer a.Close()
	defer b.Close()
	_, err := a.Call(context.Background(), transport.AddrOf("b"), a.NewActivity(), 1, 1, 1, nil, nil)
	if err != ErrRejected {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
}

func TestConcurrentCallers(t *testing.T) {
	ex := transport.NewExchange()
	caller, server, sa := pair(t, ex, fastCfg(), echoHandler)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			act := caller.NewActivity()
			for seq := uint32(1); seq <= 25; seq++ {
				msg := []byte(fmt.Sprintf("a%d-s%d", act, seq))
				res, err := caller.Call(context.Background(), sa, act, seq, 1, 1, msg, nil)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(res[:len(msg)], msg) {
					errs <- fmt.Errorf("corrupted response")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := server.Stats().CallsServed; got != 200 {
		t.Fatalf("served %d, want 200", got)
	}
}

func TestPing(t *testing.T) {
	ex := transport.NewExchange()
	caller, _, sa := pair(t, ex, fastCfg(), echoHandler)
	if err := caller.Ping(sa, time.Second); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if err := caller.Ping(transport.AddrOf("ghost"), 50*time.Millisecond); err != ErrTimeout {
		t.Fatalf("ghost ping err = %v, want ErrTimeout", err)
	}
}

func TestCloseFailsOutstanding(t *testing.T) {
	ex := transport.NewExchange()
	release := make(chan struct{})
	caller, _, sa := pair(t, ex, fastCfg(),
		func(transport.Addr, wire.TraceCtx, uint32, uint16, []byte) ([]byte, error) {
			<-release
			return nil, nil
		})
	defer close(release)
	done := make(chan error, 1)
	go func() {
		_, err := caller.Call(context.Background(), sa, caller.NewActivity(), 1, 1, 1, nil, nil)
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	caller.Close()
	select {
	case err := <-done:
		if err != ErrClosed && err != ErrTimeout {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("outstanding call not failed by Close")
	}
}

func TestActivitiesIndependent(t *testing.T) {
	ex := transport.NewExchange()
	caller, server, sa := pair(t, ex, fastCfg(), echoHandler)
	a1, a2 := caller.NewActivity(), caller.NewActivity()
	if a1 == a2 {
		t.Fatal("activities collide")
	}
	// Same seq on different activities must both execute.
	if _, err := caller.Call(context.Background(), sa, a1, 1, 1, 1, []byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := caller.Call(context.Background(), sa, a2, 1, 1, 1, []byte("y"), nil); err != nil {
		t.Fatal(err)
	}
	if server.Stats().CallsServed != 2 {
		t.Fatal("activity isolation broken")
	}
}

func TestUDPTransportRoundTrip(t *testing.T) {
	s, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback UDP:", err)
	}
	c, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := NewConn(s, fastCfg(), echoHandler)
	caller := NewConn(c, fastCfg(), nil)
	defer server.Close()
	defer caller.Close()

	res, err := caller.Call(context.Background(), s.LocalAddr(), caller.NewActivity(), 1, 1, 1, []byte("over-udp"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "over-udp\xee" {
		t.Fatalf("result %q", res)
	}

	// Fragmented over real UDP too.
	big := make([]byte, 6000)
	res, err = caller.Call(context.Background(), s.LocalAddr(), caller.NewActivity(), 1, 1, 1, big, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 6001 {
		t.Fatalf("result len %d", len(res))
	}
}
