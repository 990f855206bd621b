package registry

import (
	"testing"
	"time"

	"fireflyrpc/internal/clock"
	"fireflyrpc/internal/core"
	"fireflyrpc/internal/marshal"
	"fireflyrpc/internal/proto"
	"fireflyrpc/internal/transport"
)

// world wires a directory server, an application server, and a caller onto
// one exchange.
func world(t *testing.T) (dir *Server, reg *Client, caller *core.Node, ex *transport.Exchange) {
	t.Helper()
	ex = transport.NewExchange()
	cfg := proto.Config{RetransInterval: 20 * time.Millisecond, MaxRetries: 5, Workers: 4}
	dirNode := core.NewNode(ex.Port("directory"), cfg)
	caller = core.NewNode(ex.Port("caller"), cfg)
	dir = NewServer()
	dirNode.Export(dir.Export())
	reg = NewClient(caller, transport.AddrOf("directory"))
	t.Cleanup(func() { dirNode.Close(); caller.Close() })
	return dir, reg, caller, ex
}

func TestRegisterLookup(t *testing.T) {
	_, reg, _, _ := world(t)
	if err := reg.Register("Test/v1", "server-9", time.Minute); err != nil {
		t.Fatal(err)
	}
	addr, err := reg.Lookup("Test/v1")
	if err != nil {
		t.Fatal(err)
	}
	if addr != "server-9" {
		t.Fatalf("addr = %q", addr)
	}
}

func TestLookupMissing(t *testing.T) {
	_, reg, _, _ := world(t)
	if _, err := reg.Lookup("nope"); err != ErrNotFound {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestLeaseExpiry(t *testing.T) {
	dir, reg, _, _ := world(t)
	m := clock.NewManual()
	dir.clk = m
	if err := reg.Register("ephemeral", "x", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Lookup("ephemeral"); err != nil {
		t.Fatal("fresh lease should resolve")
	}
	m.Advance(11 * time.Second)
	if _, err := reg.Lookup("ephemeral"); err != ErrNotFound {
		t.Fatalf("expired lease resolved: %v", err)
	}
}

func TestReRegistrationRefreshes(t *testing.T) {
	dir, reg, _, _ := world(t)
	m := clock.NewManual()
	dir.clk = m
	reg.Register("svc", "a", 10*time.Second)
	m.Advance(8 * time.Second)
	reg.Register("svc", "b", 10*time.Second) // refresh with a new address
	m.Advance(8 * time.Second)               // 16s after first, 8 after second
	addr, err := reg.Lookup("svc")
	if err != nil || addr != "b" {
		t.Fatalf("addr=%q err=%v", addr, err)
	}
}

func TestListByPrefix(t *testing.T) {
	_, reg, _, _ := world(t)
	reg.Register("Test/v1", "a", time.Minute)
	reg.Register("Test/v2", "b", time.Minute)
	reg.Register("File/v1", "c", time.Minute)
	names, err := reg.List("Test/")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("names = %v", names)
	}
	all, err := reg.List("")
	if err != nil || len(all) != 3 {
		t.Fatalf("all = %v err=%v", all, err)
	}
	none, err := reg.List("zzz")
	if err != nil || none != nil {
		t.Fatalf("none = %v err=%v", none, err)
	}
}

func TestDeregister(t *testing.T) {
	_, reg, _, _ := world(t)
	reg.Register("gone", "x", time.Minute)
	if err := reg.Deregister("gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Lookup("gone"); err != ErrNotFound {
		t.Fatal("deregistered name still resolves")
	}
}

// TestLookupAllMultiAddress is the replica-set story: three servers register
// one name concurrently, none overwrites another, and each lease ages out
// independently under a manual clock.
func TestLookupAllMultiAddress(t *testing.T) {
	dir, reg, _, _ := world(t)
	m := clock.NewManual()
	dir.clk = m

	reg.Register("kv", "replica-a", 10*time.Second)
	reg.Register("kv", "replica-b", 20*time.Second)
	reg.Register("kv", "replica-c", 30*time.Second)

	addrs, err := reg.LookupAll("kv")
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 3 || addrs[0] != "replica-a" || addrs[1] != "replica-b" || addrs[2] != "replica-c" {
		t.Fatalf("addrs = %v, want the sorted replica set", addrs)
	}

	// Lookup (singular) keeps working against a multi-address entry and
	// returns the most recently refreshed lease.
	one, err := reg.Lookup("kv")
	if err != nil || one != "replica-c" {
		t.Fatalf("Lookup = %q, %v", one, err)
	}

	m.Advance(11 * time.Second) // a's lease runs out
	addrs, err = reg.LookupAll("kv")
	if err != nil || len(addrs) != 2 || addrs[0] != "replica-b" {
		t.Fatalf("after a expires: addrs = %v err = %v", addrs, err)
	}

	m.Advance(10 * time.Second) // b follows
	addrs, err = reg.LookupAll("kv")
	if err != nil || len(addrs) != 1 || addrs[0] != "replica-c" {
		t.Fatalf("after b expires: addrs = %v err = %v", addrs, err)
	}

	m.Advance(10 * time.Second) // and the name itself ages out
	if _, err := reg.LookupAll("kv"); err != ErrNotFound {
		t.Fatalf("expired name resolved: %v", err)
	}
	if _, err := reg.Lookup("kv"); err != ErrNotFound {
		t.Fatalf("expired name resolved via Lookup: %v", err)
	}
}

// TestRefreshOneReplicaKeepsOthers pins the fix for the old last-writer-wins
// limitation: refreshing one replica's lease must not clobber its peers.
func TestRefreshOneReplicaKeepsOthers(t *testing.T) {
	dir, reg, _, _ := world(t)
	m := clock.NewManual()
	dir.clk = m

	reg.Register("svc", "a", 10*time.Second)
	reg.Register("svc", "b", 10*time.Second)
	m.Advance(8 * time.Second)
	reg.Register("svc", "a", 10*time.Second) // refresh a only
	m.Advance(4 * time.Second)               // b's original lease is now dead

	addrs, err := reg.LookupAll("svc")
	if err != nil || len(addrs) != 1 || addrs[0] != "a" {
		t.Fatalf("addrs = %v err = %v, want just the refreshed a", addrs, err)
	}
}

func TestDeregisterAddr(t *testing.T) {
	_, reg, _, _ := world(t)
	reg.Register("svc", "a", time.Minute)
	reg.Register("svc", "b", time.Minute)
	if err := reg.DeregisterAddr("svc", "a"); err != nil {
		t.Fatal(err)
	}
	addrs, err := reg.LookupAll("svc")
	if err != nil || len(addrs) != 1 || addrs[0] != "b" {
		t.Fatalf("addrs = %v err = %v", addrs, err)
	}
	if err := reg.DeregisterAddr("svc", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.LookupAll("svc"); err != ErrNotFound {
		t.Fatalf("emptied name still resolves: %v", err)
	}
}

// TestLeaseRefreshLoop drives the refresher on a manual clock: with a TTL
// far shorter than the time advanced, the address stays resolvable only
// because the refresher keeps re-registering it, and stop() deregisters it.
func TestLeaseRefreshLoop(t *testing.T) {
	dir, reg, _, _ := world(t)
	m := clock.NewManual()
	dir.clk, reg.clk = m, m
	stop, err := reg.Lease("leased", "addr-1", 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		m.Advance(20 * time.Millisecond) // a refresh falls due every 50ms
		if _, err := reg.LookupAll("leased"); err != nil {
			t.Fatalf("lease lapsed %v in, while the refresher ran: %v", time.Duration(i+1)*20*time.Millisecond, err)
		}
	}
	stop()
	if _, err := reg.LookupAll("leased"); err != ErrNotFound {
		t.Fatalf("stop() did not deregister: %v", err)
	}
}

// TestEndToEndBindViaDirectory is the full §3.1.1 story: a server registers
// its exported interface, a caller looks it up and binds, then calls.
func TestEndToEndBindViaDirectory(t *testing.T) {
	_, reg, caller, ex := world(t)
	cfg := proto.Config{RetransInterval: 20 * time.Millisecond, MaxRetries: 5, Workers: 4}

	// The application server exports Arith and advertises itself.
	app := core.NewNode(ex.Port("app-server"), cfg)
	defer app.Close()
	app.Export(core.NewInterface("Arith", 1).
		Proc(1, func(_ transport.Addr, d *marshal.Dec) ([]byte, error) {
			a, b := d.Int32(), d.Int32()
			if err := d.Err(); err != nil {
				return nil, err
			}
			return core.Reply(4, func(e *marshal.Enc) { e.PutInt32(a + b) })
		}))
	appReg := NewClient(app, transport.AddrOf("directory"))
	if err := appReg.Register("Arith/v1", app.Addr().String(), time.Minute); err != nil {
		t.Fatal(err)
	}

	// The caller discovers it through the directory and binds.
	addr, err := reg.Lookup("Arith/v1")
	if err != nil {
		t.Fatal(err)
	}
	c := caller.Bind(transport.AddrOf(addr), "Arith", 1).NewClient()
	var sum int32
	err = c.Call(1, 8,
		func(e *marshal.Enc) { e.PutInt32(2); e.PutInt32(40) },
		func(d *marshal.Dec) { sum = d.Int32() })
	if err != nil || sum != 42 {
		t.Fatalf("sum=%d err=%v", sum, err)
	}
}
