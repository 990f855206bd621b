package kvstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"fireflyrpc/internal/cluster"
	"fireflyrpc/internal/core"
	"fireflyrpc/internal/proto"
	"fireflyrpc/internal/transport"
	"fireflyrpc/internal/wire"
)

func TestStoreApplyIdempotent(t *testing.T) {
	s := NewStore()
	if !s.Apply("k", 1, []byte("v1")) {
		t.Fatal("first apply refused")
	}
	if s.Apply("k", 1, []byte("v1-again")) {
		t.Fatal("duplicate version applied — double commit")
	}
	if s.Apply("k", 0, []byte("older")) {
		t.Fatal("older version applied")
	}
	if !s.Apply("k", 2, []byte("v2")) {
		t.Fatal("newer version refused")
	}
	val, ver, ok := s.Get("k")
	if !ok || ver != 2 || string(val) != "v2" {
		t.Fatalf("got %q v%d ok=%v", val, ver, ok)
	}
	st := s.Stats()
	if st.Applies != 2 || st.Ignored != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// gate wraps a transport and, when cut, silently drops everything in both
// directions — one replica's side of a network partition.
type gate struct {
	transport.Transport
	cut atomic.Bool
}

func (g *gate) Send(dst transport.Addr, frame []byte) error {
	if g.cut.Load() {
		return nil
	}
	return g.Transport.Send(dst, frame)
}

func (g *gate) SetReceiver(r transport.Receiver) {
	g.Transport.SetReceiver(func(src transport.Addr, frame []byte) {
		if g.cut.Load() {
			return
		}
		r(src, frame)
	})
}

// resultOrder makes one replica's results trail another's: each result
// frame the follower sends waits for one from the leader. The follower's
// reply then reaches the client right behind the reply that completes a
// 2-of-3 quorum — a straggler that still succeeds, decoding after the
// fan-out has returned.
type resultOrder struct {
	transport.Transport
	turn   chan struct{}
	leader bool
}

func (r *resultOrder) Send(dst transport.Addr, frame []byte) error {
	h, _, err := wire.UnmarshalRPC(frame)
	result := err == nil && h.Type == wire.TypeResult
	if result && !r.leader {
		select {
		case <-r.turn:
		case <-time.After(time.Second):
		}
	}
	err = r.Transport.Send(dst, frame)
	if result && r.leader {
		select {
		case r.turn <- struct{}{}:
		default:
		}
	}
	return err
}

// kvWorld builds a 3-replica KV service (each replica behind a gate) and
// a client with hedged reads.
func kvWorld(t *testing.T) (kv *KV, stores []*Store, gates []*gate) {
	return kvWorldWrapped(t, nil)
}

// kvWorldWrapped is kvWorld with replica i's gate wrapped by wrap(i, g).
func kvWorldWrapped(t *testing.T, wrap func(i int, g *gate) transport.Transport) (kv *KV, stores []*Store, gates []*gate) {
	t.Helper()
	ex := transport.NewExchange()
	cfg := proto.Config{RetransInterval: 20 * time.Millisecond, MaxRetries: 6, Workers: 4}
	var addrs []string
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("kv-%d", i)
		g := &gate{Transport: ex.Port(name)}
		var tr transport.Transport = g
		if wrap != nil {
			tr = wrap(i, g)
		}
		node := core.NewNode(tr, cfg)
		st := NewStore()
		node.Export(st.Export())
		stores = append(stores, st)
		gates = append(gates, g)
		addrs = append(addrs, name)
		t.Cleanup(func() { node.Close() })
	}
	caller := core.NewNode(ex.Port("kv-client"), cfg)
	t.Cleanup(func() { caller.Close() })
	c, err := cluster.New(context.Background(), cluster.Config{
		Node:      caller,
		Resolver:  cluster.Static(addrs),
		ParseAddr: func(s string) (transport.Addr, error) { return transport.AddrOf(s), nil },
		Iface:     IfaceName,
		Version:   IfaceVersion,
		Hedge:     cluster.HedgeConfig{Enabled: true, Max: 5 * time.Millisecond},
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewKV(c), stores, gates
}

func TestKVEndToEnd(t *testing.T) {
	kv, stores, _ := kvWorld(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	ver, err := kv.Put(ctx, "greeting", []byte("hello"))
	if err != nil || ver != 1 {
		t.Fatalf("put: v%d %v", ver, err)
	}
	val, ver, err := kv.Get(ctx, "greeting")
	if err != nil || ver != 1 || string(val) != "hello" {
		t.Fatalf("get: %q v%d %v", val, ver, err)
	}
	if ver2, err := kv.Put(ctx, "greeting", []byte("hi")); err != nil || ver2 != 2 {
		t.Fatalf("second put: v%d %v", ver2, err)
	}
	val, _, err = kv.GetAny(ctx, "greeting")
	if err != nil {
		t.Fatalf("getany: %v", err)
	}
	// GetAny read one replica; it holds either value but never garbage.
	if s := string(val); s != "hi" && s != "hello" {
		t.Fatalf("getany: %q", s)
	}
	if _, _, err := kv.Get(ctx, "absent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
	// A majority holds the committed version. (The straggler may hold an
	// older one: once the quorum acks, its copy of the write is cancelled —
	// that is the point of the wire-level cancel, and idempotent apply
	// makes it safe.)
	n := 0
	for _, st := range stores {
		if _, v, ok := st.Get("greeting"); ok && v == 2 {
			n++
		}
	}
	if n < 2 {
		t.Fatalf("replication incomplete: %d/3 replicas at v2, want a majority", n)
	}
}

// TestKVPartitionHeal is the acceptance scenario, seed-driven and
// deterministic in its operation sequence: writes keep succeeding while a
// minority replica is cut off, majority reads never return a value older
// than the last majority-acked write, and the healed replica converges.
func TestKVPartitionHeal(t *testing.T) {
	kv, stores, gates := kvWorld(t)
	rng := rand.New(rand.NewSource(42))
	model := map[string]string{}   // last acked value per key
	lastVer := map[string]uint64{} // last acked version per key
	keys := []string{"k0", "k1", "k2", "k3", "k4"}

	checkGet := func(phase string) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for k, want := range model {
			val, ver, err := kv.Get(ctx, k)
			if err != nil {
				t.Fatalf("[%s] get %s: %v", phase, k, err)
			}
			if ver < lastVer[k] {
				t.Fatalf("[%s] get %s went back in time: v%d < acked v%d", phase, k, ver, lastVer[k])
			}
			if string(val) != want {
				t.Fatalf("[%s] get %s = %q, want last acked %q", phase, k, val, want)
			}
		}
	}
	put := func(phase string, n int) {
		for i := 0; i < n; i++ {
			k := keys[rng.Intn(len(keys))]
			v := fmt.Sprintf("%s-%d", phase, rng.Intn(1000))
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			ver, err := kv.Put(ctx, k, []byte(v))
			cancel()
			if err != nil {
				t.Fatalf("[%s] put %s: %v", phase, k, err)
			}
			if ver <= lastVer[k] {
				t.Fatalf("[%s] put %s: version v%d did not advance past v%d", phase, k, ver, lastVer[k])
			}
			model[k], lastVer[k] = v, ver
		}
	}

	put("pre", 10)
	checkGet("pre")

	// Partition: replica 2 drops off the network. 2-of-3 majority remains.
	gates[2].cut.Store(true)
	put("cut", 10)
	checkGet("cut")

	// Heal and keep writing. Majority semantics must hold again, every key
	// must sit at its committed version on ≥2 replicas, and the healed
	// replica must rejoin the write path (its applies counter moves).
	gates[2].cut.Store(false)
	appliesAtHeal := stores[2].Stats().Applies
	put("healed", 10)
	checkGet("healed")

	for k, want := range model {
		n := 0
		for _, st := range stores {
			if val, v, ok := st.Get(k); ok && v == lastVer[k] && string(val) == want {
				n++
			}
		}
		if n < 2 {
			t.Fatalf("key %s at committed v%d on %d replicas, want a majority", k, lastVer[k], n)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for stores[2].Stats().Applies == appliesAtHeal {
		if time.Now().After(deadline) {
			t.Fatal("healed replica never applied a post-heal write")
		}
		// Each fresh write is a fresh chance for the healed replica to win
		// the apply-before-cancel race.
		put("heal-probe", 1)
	}
	checkGet("final")
}

// A straggler whose reply lands just after the quorum has formed still
// decodes into the majority read's result — here with a newer version than
// the quorum's, so it writes. Get and Put's version read must not race with
// it (run under -race).
func TestKVStragglerAfterQuorum(t *testing.T) {
	turn := make(chan struct{}, 64)
	kv, stores, _ := kvWorldWrapped(t, func(i int, g *gate) transport.Transport {
		if i == 0 {
			return g
		}
		return &resultOrder{Transport: g, turn: turn, leader: i == 1}
	})
	for _, st := range stores {
		st.Apply("k", 1, []byte("v1"))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for v := uint64(2); v < 22; v++ {
		// Only the trailing replica holds the newest version.
		stores[2].Apply("k", v, []byte(fmt.Sprintf("v%d", v)))
		val, ver, err := kv.Get(ctx, "k")
		if err != nil || ver < 1 || string(val) != fmt.Sprintf("v%d", ver) {
			t.Fatalf("get: %q v%d %v", val, ver, err)
		}
		if ver, err := kv.versionQuorum(ctx, "k"); err != nil || ver < 1 {
			t.Fatalf("version quorum: v%d %v", ver, err)
		}
	}
}

// TestKVGetAnySurvivesPartition: the hedged single-replica read path must
// keep answering while one replica is cut — the hedge rescues calls whose
// primary is the dead replica.
func TestKVGetAnySurvivesPartition(t *testing.T) {
	kv, stores, gates := kvWorld(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Seed every replica directly so any single-replica read has the value
	// (a quorum Put may legitimately skip the cancelled straggler).
	for _, st := range stores {
		st.Apply("k", 1, []byte("v"))
	}
	gates[1].cut.Store(true)
	for i := 0; i < 20; i++ {
		val, _, err := kv.GetAny(ctx, "k")
		if err != nil {
			t.Fatalf("getany %d during partition: %v", i, err)
		}
		if !bytes.Equal(val, []byte("v")) {
			t.Fatalf("getany %d: %q", i, val)
		}
	}
	s := kv.Cluster().Stats()
	if s.HedgesFired == 0 {
		t.Fatalf("partition never triggered a hedge: %+v", s)
	}
}
