package debughttp

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"fireflyrpc/internal/cluster"
	"fireflyrpc/internal/core"
	"fireflyrpc/internal/marshal"
	"fireflyrpc/internal/proto"
	"fireflyrpc/internal/transport"
)

// TestClusterViewUnderLiveTraffic races the cluster debug surface —
// /debug/rpc/cluster and the fireflyrpc_cluster_* metrics — against live
// hedged traffic: scrapes must parse and never perturb the callers.
func TestClusterViewUnderLiveTraffic(t *testing.T) {
	ex := transport.NewExchange()
	cfg := proto.Config{RetransInterval: 50 * time.Millisecond, MaxRetries: 8, Workers: 4}
	var addrs []string
	for _, name := range []string{"ra", "rb", "rc"} {
		node := core.NewNode(ex.Port(name), cfg)
		node.Export(core.NewInterface("Echo", 1).
			Proc(1, func(_ transport.Addr, d *marshal.Dec) ([]byte, error) {
				v := d.Int32()
				if err := d.Err(); err != nil {
					return nil, err
				}
				return core.Reply(4, func(e *marshal.Enc) { e.PutInt32(v + 1) })
			}))
		addrs = append(addrs, name)
		defer node.Close()
	}
	caller := core.NewNode(ex.Port("caller"), cfg)
	defer caller.Close()
	cc, err := cluster.New(context.Background(), cluster.Config{
		Node:      caller,
		Resolver:  cluster.Static(addrs),
		ParseAddr: func(s string) (transport.Addr, error) { return transport.AddrOf(s), nil },
		Iface:     "Echo",
		Version:   1,
		Hedge:     cluster.HedgeConfig{Enabled: true, After: time.Nanosecond}, // every call hedges
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	RegisterCluster("echo", cc)
	defer UnregisterCluster("echo")

	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Live hedged traffic from several goroutines for the whole scrape run.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var out int32
				err := cc.Call(context.Background(), 1, 4,
					func(e *marshal.Enc) { e.PutInt32(int32(i)) },
					func(d *marshal.Dec) { out = d.Int32() })
				if err != nil {
					t.Errorf("call: %v", err)
					return
				}
				if out != int32(i)+1 {
					t.Errorf("echo(%d) = %d", i, out)
					return
				}
			}
		}()
	}

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	for scrape := 0; scrape < 20; scrape++ {
		var view map[string]cluster.Stats
		if err := json.Unmarshal(get("/debug/rpc/cluster"), &view); err != nil {
			t.Fatalf("scrape %d: bad cluster JSON: %v", scrape, err)
		}
		s, ok := view["echo"]
		if !ok || len(s.Replicas) != 3 {
			t.Fatalf("scrape %d: view = %+v", scrape, view)
		}
		metrics := string(get("/debug/rpc/metrics"))
		for _, want := range []string{
			`fireflyrpc_cluster_calls_total{cluster="echo",kind="logical"}`,
			`fireflyrpc_cluster_hedges_total{cluster="echo",event="fired"}`,
			`fireflyrpc_cluster_replica_picks_total{cluster="echo",replica="ra"}`,
			`fireflyrpc_cluster_replica_ejected{cluster="echo",replica="rc"}`,
		} {
			if !strings.Contains(metrics, want) {
				t.Fatalf("scrape %d: metrics missing %s", scrape, want)
			}
		}
	}
	close(stop)
	wg.Wait()

	s := cc.Stats()
	if s.Calls == 0 || s.Issued < s.Calls {
		t.Fatalf("no traffic flowed during the scrape run: %+v", s)
	}
}
