package proto

import (
	"context"
	"sync"
	"testing"
	"time"

	"fireflyrpc/internal/faultnet"
	"fireflyrpc/internal/transport"
	"fireflyrpc/internal/wire"
)

// sniffTransport wraps a transport for tests: it records the header of
// every sent TypeCall frame and can drop frames matched by drop.
type sniffTransport struct {
	transport.Transport
	mu    sync.Mutex
	calls []wire.RPCHeader
	drop  func(hdr wire.RPCHeader) bool
}

func (s *sniffTransport) Send(dst transport.Addr, frame []byte) error {
	hdr, _, err := wire.UnmarshalRPC(frame)
	if err == nil {
		s.mu.Lock()
		dropIt := s.drop != nil && s.drop(hdr)
		if !dropIt && hdr.Type == wire.TypeCall {
			s.calls = append(s.calls, hdr)
		}
		s.mu.Unlock()
		if dropIt {
			return nil
		}
	}
	return s.Transport.Send(dst, frame)
}

func (s *sniffTransport) lastCall(t *testing.T) wire.RPCHeader {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.calls) == 0 {
		t.Fatal("no call frames recorded")
	}
	return s.calls[len(s.calls)-1]
}

// sessionState polls the caller's channel for addr until its session state
// matches want (or the deadline passes).
func waitSessionState(t *testing.T, c *Conn, addr transport.Addr, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ch := c.lookupChannel(addr); ch != nil && sessStateOf(ch.sess.Load()) == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	state := -1
	if ch := c.lookupChannel(addr); ch != nil {
		state = sessStateOf(ch.sess.Load())
	}
	t.Fatalf("session state = %s, want %s", sessStateName(state), sessStateName(want))
}

// TestSessionNegotiates pins the default behavior: the first call triggers
// a hello, both sides converge on SessionVersion with the full feature
// intersection, and the agreement is cached (no re-negotiation on later
// calls).
func TestSessionNegotiates(t *testing.T) {
	ex := transport.NewExchange()
	caller, server, sa := pair(t, ex, fastCfg(), echoHandler)
	act := caller.NewActivity()
	if _, err := caller.Call(context.Background(), sa, act, 1, 7, 3, []byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	waitSessionState(t, caller, sa, sessNegotiated)
	ch := caller.lookupChannel(sa)
	w := ch.sess.Load()
	if v := sessVersionOf(w); v != wire.SessionVersion {
		t.Fatalf("agreed version = %d, want %d", v, wire.SessionVersion)
	}
	if f := sessFeaturesOf(w); f != defaultFeatures {
		t.Fatalf("negotiated features = %#x, want %#x", f, defaultFeatures)
	}
	// The responder caches the same agreement on its side of the channel.
	waitSessionState(t, server, caller.LocalAddr(), sessNegotiated)
	for i := 0; i < 10; i++ {
		if _, err := caller.Call(context.Background(), sa, act, uint32(2+i), 7, 3, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	cs, ss := caller.Stats(), server.Stats()
	if cs.SessionsNegotiated != 1 {
		t.Fatalf("caller SessionsNegotiated = %d, want 1", cs.SessionsNegotiated)
	}
	if ss.SessionsNegotiated != 1 {
		t.Fatalf("server SessionsNegotiated = %d, want 1", ss.SessionsNegotiated)
	}
	if cs.HellosSent < 1 || cs.HellosSent > defaultHelloAttempts {
		t.Fatalf("caller HellosSent = %d", cs.HellosSent)
	}
}

// TestSessionLegacyFallback pins old-binary interop: a peer that drops
// hello packets as bad frames (DisableHello simulates the pre-session
// binary) still serves calls, and the caller settles on the legacy session
// after its hello attempts run out.
func TestSessionLegacyFallback(t *testing.T) {
	ex := transport.NewExchange()
	cfg := fastCfg()
	cfg.HelloTimeout = 5 * time.Millisecond
	oldCfg := cfg
	oldCfg.DisableHello = true
	caller := NewConn(ex.Port("caller"), cfg, nil)
	server := NewConn(ex.Port("server"), oldCfg, echoHandler)
	t.Cleanup(func() { caller.Close(); server.Close() })
	sa := transport.AddrOf("server")

	act := caller.NewActivity()
	// Calls succeed from the first one, while negotiation is still pending.
	for i := 0; i < 5; i++ {
		res, err := caller.Call(context.Background(), sa, act, uint32(1+i), 7, 3, []byte("hi"), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 0 {
			t.Fatal("empty result")
		}
	}
	waitSessionState(t, caller, sa, sessLegacy)
	cs := caller.Stats()
	if cs.SessionsLegacy != 1 {
		t.Fatalf("SessionsLegacy = %d, want 1", cs.SessionsLegacy)
	}
	if cs.HellosSent != defaultHelloAttempts {
		t.Fatalf("HellosSent = %d, want %d", cs.HellosSent, defaultHelloAttempts)
	}
	if server.Stats().BadFrames < defaultHelloAttempts {
		t.Fatalf("old server BadFrames = %d, want >= %d (dropped hellos)",
			server.Stats().BadFrames, defaultHelloAttempts)
	}
	// Legacy implies the v0 capability set: budget and cancel stay on.
	if f := caller.lookupChannel(sa).features(); f != legacyFeatures {
		t.Fatalf("legacy features = %#x, want %#x", f, legacyFeatures)
	}
	if _, err := caller.Call(context.Background(), sa, act, 100, 7, 3, nil, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSessionVersionMismatch pins the rejection path: a caller from a
// future protocol generation whose minimum version is beyond ours gets a
// version-0 ack and falls back to legacy on both sides; calls keep working.
func TestSessionVersionMismatch(t *testing.T) {
	ex := transport.NewExchange()
	cfg := fastCfg()
	caller, server, sa := pair(t, ex, cfg, echoHandler)
	// Impersonate a future binary that no longer speaks our version.
	caller.helloVersion = wire.SessionVersion + 7
	caller.helloMinVersion = wire.SessionVersion + 5

	act := caller.NewActivity()
	if _, err := caller.Call(context.Background(), sa, act, 1, 7, 3, []byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	waitSessionState(t, caller, sa, sessLegacy)
	if caller.Stats().HelloRejects != 1 {
		t.Fatalf("caller HelloRejects = %d, want 1", caller.Stats().HelloRejects)
	}
	if server.Stats().HelloRejects != 1 {
		t.Fatalf("server HelloRejects = %d, want 1", server.Stats().HelloRejects)
	}
	waitSessionState(t, server, caller.LocalAddr(), sessLegacy)
	if _, err := caller.Call(context.Background(), sa, act, 2, 7, 3, nil, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSessionFeatureDowngrade pins capability gating on the wire: against
// a peer that does not advertise FeatBudget, calls stop carrying the
// budget flag once negotiation concludes, and without FeatCancel the
// caller stops sending cancel packets (failing the call locally as if the
// cancel were lost).
func TestSessionFeatureDowngrade(t *testing.T) {
	ex := transport.NewExchange()
	cfg := fastCfg()
	cfg.CallTimeout = time.Second // every call has a deadline to advertise
	srvCfg := cfg
	srvCfg.AdvertiseFeatures = wire.FeatTrace // no budget, no cancel
	sniff := &sniffTransport{Transport: ex.Port("caller")}
	caller := NewConn(sniff, cfg, nil)
	block := make(chan struct{})
	server := NewConn(ex.Port("server"), srvCfg, func(src transport.Addr, _ wire.TraceCtx, iface uint32, proc uint16, args []byte) ([]byte, error) {
		if proc == 99 {
			<-block
		}
		return args, nil
	})
	t.Cleanup(func() { close(block); caller.Close(); server.Close() })
	sa := transport.AddrOf("server")

	act := caller.NewActivity()
	if _, err := caller.Call(context.Background(), sa, act, 1, 7, 3, []byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	waitSessionState(t, caller, sa, sessNegotiated)
	if f := caller.lookupChannel(sa).features(); f != wire.FeatTrace {
		t.Fatalf("negotiated features = %#x, want %#x", f, wire.FeatTrace)
	}
	if _, err := caller.Call(context.Background(), sa, act, 2, 7, 3, []byte("y"), nil); err != nil {
		t.Fatal(err)
	}
	if hdr := sniff.lastCall(t); hdr.Flags&wire.FlagBudget != 0 {
		t.Fatalf("negotiated-down call still carries FlagBudget (flags %#x)", hdr.Flags)
	}
	// Cancel a call stuck in a blocked handler: no cancel packet may leave.
	ctx, cancel := context.WithCancel(context.Background())
	p, err := caller.goCall(ctx, sa, act, 3, 7, 99, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	cancel()
	if _, err := p.Await(ctx); err != context.Canceled {
		t.Fatalf("Await err = %v, want context.Canceled", err)
	}
	time.Sleep(10 * time.Millisecond)
	if n := server.Stats().Cancels; n != 0 {
		t.Fatalf("server received %d cancel packets from a no-FeatCancel session", n)
	}
}

// TestSessionHelloLostFallsBack drops every hello on the floor (calls flow
// untouched): the caller must retry the configured number of times and
// then settle on legacy without ever stalling a call.
func TestSessionHelloLostFallsBack(t *testing.T) {
	ex := transport.NewExchange()
	cfg := fastCfg()
	cfg.HelloTimeout = 5 * time.Millisecond
	sniff := &sniffTransport{
		Transport: ex.Port("caller"),
		drop:      func(hdr wire.RPCHeader) bool { return hdr.Type == wire.TypeHello },
	}
	caller := NewConn(sniff, cfg, nil)
	server := NewConn(ex.Port("server"), cfg, echoHandler)
	t.Cleanup(func() { caller.Close(); server.Close() })
	sa := transport.AddrOf("server")

	act := caller.NewActivity()
	if _, err := caller.Call(context.Background(), sa, act, 1, 7, 3, []byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	waitSessionState(t, caller, sa, sessLegacy)
	cs := caller.Stats()
	if cs.HellosSent != defaultHelloAttempts {
		t.Fatalf("HellosSent = %d, want %d", cs.HellosSent, defaultHelloAttempts)
	}
	if cs.SessionsLegacy != 1 || cs.SessionsNegotiated != 0 {
		t.Fatalf("stats = %+v", cs)
	}
}

// TestSessionHelloRacesFirstCalls fires a burst of first calls from many
// goroutines at a fresh connection: exactly one hello exchange may run (no
// double negotiation), nothing deadlocks, and every call completes.
func TestSessionHelloRacesFirstCalls(t *testing.T) {
	ex := transport.NewExchange()
	caller, _, sa := pair(t, ex, fastCfg(), echoHandler)
	const callers = 16
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			act := caller.NewActivity()
			for seq := uint32(1); seq <= 8; seq++ {
				if _, err := caller.Call(context.Background(), sa, act, seq, 7, 3, []byte("race"), nil); err != nil {
					errs <- err
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
	waitSessionState(t, caller, sa, sessNegotiated)
	cs := caller.Stats()
	if cs.SessionsNegotiated != 1 {
		t.Fatalf("SessionsNegotiated = %d, want exactly 1", cs.SessionsNegotiated)
	}
	if cs.HellosSent > defaultHelloAttempts {
		t.Fatalf("HellosSent = %d, want <= %d (one negotiation)", cs.HellosSent, defaultHelloAttempts)
	}
}

// TestSessionNegotiationUnderLoss runs the handshake across a lossy link
// (the verify.sh race:session-negotiation step): hello or ack drops must
// end in one of the two terminal states — negotiated via a retry, or
// legacy after the attempts run out — while calls keep completing.
func TestSessionNegotiationUnderLoss(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		ex := transport.NewExchange()
		cfg := fastCfg()
		cfg.HelloTimeout = 10 * time.Millisecond
		caller, _, sa, _ := faultyPair(t, ex, cfg, echoHandler, faultnet.Loss(0.3), seed)
		act := caller.NewActivity()
		for seq := uint32(1); seq <= 20; seq++ {
			if _, err := caller.Call(context.Background(), sa, act, seq, 7, 3, []byte("lossy"), nil); err != nil {
				t.Fatalf("seed %d seq %d: %v", seed, seq, err)
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			ch := caller.lookupChannel(sa)
			st := sessStateOf(ch.sess.Load())
			if st == sessNegotiated || st == sessLegacy {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("seed %d: negotiation never reached a terminal state (%s)",
					seed, sessStateName(st))
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestSessionRenegotiatesAfterEviction: an idle-evicted channel loses its
// cached agreement with the rest of its state; the next call negotiates
// afresh instead of assuming stale capabilities.
func TestSessionRenegotiatesAfterEviction(t *testing.T) {
	ex := transport.NewExchange()
	cfg := fastCfg()
	cfg.PeerIdleTimeout = 30 * time.Millisecond
	caller, _, sa := pair(t, ex, cfg, echoHandler)
	act := caller.NewActivity()
	if _, err := caller.Call(context.Background(), sa, act, 1, 7, 3, nil, nil); err != nil {
		t.Fatal(err)
	}
	waitSessionState(t, caller, sa, sessNegotiated)
	deadline := time.Now().Add(5 * time.Second)
	for caller.lookupChannel(sa) != nil {
		if time.Now().After(deadline) {
			t.Fatal("channel never evicted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := caller.Call(context.Background(), sa, act, 2, 7, 3, nil, nil); err != nil {
		t.Fatal(err)
	}
	waitSessionState(t, caller, sa, sessNegotiated)
	if n := caller.Stats().SessionsNegotiated; n != 2 {
		t.Fatalf("SessionsNegotiated = %d, want 2 (re-negotiated after eviction)", n)
	}
}
