package debughttp

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"fireflyrpc/internal/core"
	"fireflyrpc/internal/proto"
	"fireflyrpc/internal/testsvc"
	"fireflyrpc/internal/transport"
)

// TestDebugSurfaceLiveTCP scrapes every endpoint — including the flight
// recorder and distributed-span pages — while concurrent callers drive real
// traffic over the multiplexed TCP transport. Run under -race (the verify
// script does) this is the proof that the surface's pull-time snapshots
// coexist with the lock-free state they read.
func TestDebugSurfaceLiveTCP(t *testing.T) {
	serverTr, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Skip("no TCP loopback:", err)
	}
	callerTr, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		serverTr.Close()
		t.Skip("no TCP loopback:", err)
	}
	cfg := proto.DefaultConfig()
	server := core.NewNode(serverTr, cfg)
	caller := core.NewNode(callerTr, cfg)
	defer server.Close()
	defer caller.Close()
	server.Export(testsvc.ExportTest(nullImpl{}))
	binding := caller.Bind(server.Addr(), testsvc.TestName, testsvc.TestVersion)

	caller.Conn().SetTracing(1, 512)
	server.Conn().SetTracing(1, 512)

	Register("tcp-caller", caller.Conn())
	Register("tcp-server", server.Conn())
	defer Unregister("tcp-caller")
	defer Unregister("tcp-server")

	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer srv.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return body
	}

	// Drive traffic from several callers while a scraper hits every page:
	// the snapshots must interleave with live updates without a data race.
	const goroutines, callsEach = 4, 64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := testsvc.NewTestClient(binding)
			for i := 0; i < callsEach; i++ {
				if err := cl.Null(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for i := 0; i < 16; i++ {
			for _, p := range []string{
				"/debug/rpc", "/debug/rpc/flight", "/debug/rpc/trace/spans",
				"/debug/rpc/trace/spans?format=perfetto", "/debug/rpc/metrics",
			} {
				get(p)
			}
		}
	}()
	wg.Wait()
	<-scrapeDone

	// Spans: the assembled set must be non-empty and causally sound JSON.
	var spans []proto.Span
	if err := json.Unmarshal(get("/debug/rpc/trace/spans"), &spans); err != nil {
		t.Fatalf("bad spans JSON: %v", err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans assembled from live TCP traffic")
	}
	for i := range spans {
		if spans[i].SpanID == 0 {
			t.Fatalf("span %d has no id: %+v", i, spans[i])
		}
	}

	// Perfetto rendering of the same spans must be a loadable document.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(get("/debug/rpc/trace/spans?format=perfetto"), &doc); err != nil {
		t.Fatalf("bad perfetto JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("perfetto document is empty")
	}

	// Flight recorder: both conns present with a well-formed view. (Clean
	// traffic records no anomalies; the proto tests force the dumps.)
	var flight map[string]FlightView
	if err := json.Unmarshal(get("/debug/rpc/flight"), &flight); err != nil {
		t.Fatalf("bad flight JSON: %v", err)
	}
	for _, name := range []string{"tcp-caller", "tcp-server"} {
		if _, ok := flight[name]; !ok {
			t.Errorf("flight view missing %q", name)
		}
	}

	// Metrics: build info plus the fixed-grid histogram export.
	metrics := string(get("/debug/rpc/metrics"))
	for _, want := range []string{
		"fireflyrpc_build_info{go_version=",
		`le="0.001048576"`, // 2^20 ns on the fixed grid
		`le="+Inf"`,
		"fireflyrpc_peer_latency_seconds_count",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}
