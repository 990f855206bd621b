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
	"fireflyrpc/internal/sim"
	"fireflyrpc/internal/testsvc"
	"fireflyrpc/internal/transport"
)

// TestSimSurfaceLive serves /debug/rpc/sim and /debug/rpc/metrics while
// another goroutine drives the registered simulation. Under -race this pins
// that HTTP-triggered inspection cannot corrupt (or race with) a run.
func TestSimSurfaceLive(t *testing.T) {
	k := sim.NewKernel(11)
	bus := sim.NewResource(k, "bus", 1)
	k.Spawn("worker", func(th *sim.Thread) {
		for i := 0; i < 5000; i++ {
			bus.Use(th, sim.Micros(2))
			th.Sleep(sim.Micros(1))
		}
	})
	RegisterSim("livekernel", k)
	defer UnregisterSim("livekernel")

	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer srv.Close()

	get := func(path string) []byte {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Errorf("GET %s: %v", path, err)
			return nil
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		return body
	}

	// Hammer both sim endpoints while the run progresses.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				get("/debug/rpc/sim")
				get("/debug/rpc/metrics")
			}
		}()
	}
	k.Run()
	close(stop)
	wg.Wait()
	if bus.Served() != 5000 {
		t.Errorf("served = %d, want 5000", bus.Served())
	}

	// Final snapshots reflect the finished run.
	var sims map[string]SimView
	if err := json.Unmarshal(get("/debug/rpc/sim"), &sims); err != nil {
		t.Fatalf("bad /debug/rpc/sim JSON: %v", err)
	}
	v, ok := sims["livekernel"]
	if !ok {
		t.Fatalf("no livekernel in %v", sims)
	}
	if len(v.Resources) != 1 || v.Resources[0].Name != "bus" {
		t.Fatalf("resources: %+v", v.Resources)
	}
	if v.Resources[0].Served != 5000 || v.Resources[0].Wait.N != 5000 {
		t.Errorf("bus stats: %+v", v.Resources[0])
	}
	if v.NowNs <= 0 {
		t.Errorf("now = %d, want > 0", v.NowNs)
	}

	body := string(get("/debug/rpc/metrics"))
	for _, want := range []string{
		`fireflyrpc_sim_resource_utilization{kernel="livekernel",resource="bus"}`,
		`fireflyrpc_sim_resource_served_total{kernel="livekernel",resource="bus"} 5000`,
		`fireflyrpc_sim_resource_wait_seconds_count{kernel="livekernel",resource="bus"} 5000`,
		`fireflyrpc_sim_now_seconds{kernel="livekernel"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestMetricsConnCounters checks the Prometheus rendering of a real Conn's
// counters and histograms.
func TestMetricsConnCounters(t *testing.T) {
	ex := transport.NewExchange()
	server := core.NewNode(ex.Port("msrv"), proto.DefaultConfig())
	caller := core.NewNode(ex.Port("mcall"), proto.DefaultConfig())
	defer server.Close()
	defer caller.Close()
	server.Export(testsvc.ExportTest(nullImpl{}))
	cl := testsvc.NewTestClient(caller.Bind(server.Addr(), testsvc.TestName, testsvc.TestVersion))
	caller.Conn().SetTracing(1, 128) // latency histograms record while observability is on
	for i := 0; i < 16; i++ {
		if err := cl.Null(); err != nil {
			t.Fatal(err)
		}
	}
	Register("prom-caller", caller.Conn())
	defer Unregister("prom-caller")

	var sb strings.Builder
	writeMetrics(&sb)
	body := sb.String()
	for _, want := range []string{
		`fireflyrpc_counter_total{conn="prom-caller",counter="calls_sent"} 16`,
		`fireflyrpc_counter_total{conn="prom-caller",counter="calls_completed"} 16`,
		`fireflyrpc_peer_latency_seconds_count{conn="prom-caller",`,
		`fireflyrpc_method_latency_seconds_bucket{conn="prom-caller",`,
		`le="+Inf"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
	// Histogram buckets must be cumulative: the +Inf bucket equals _count.
	if !strings.Contains(body, "# TYPE fireflyrpc_peer_latency_seconds histogram") {
		t.Error("missing TYPE line for peer latency histogram")
	}
}

// TestMetricsTransportCounters checks that a Conn over a ListenUDPBatch
// socket surfaces the transport's own counters in both the JSON view
// and the Prometheus rendering.
func TestMetricsTransportCounters(t *testing.T) {
	serverTr, err := transport.ListenUDPBatch("127.0.0.1:0", transport.UDPOptions{})
	if err != nil {
		t.Skip("no loopback:", err)
	}
	callerTr, err := transport.ListenUDPBatch("127.0.0.1:0", transport.UDPOptions{})
	if err != nil {
		serverTr.Close()
		t.Skip("no loopback:", err)
	}
	server := core.NewNode(serverTr, proto.DefaultConfig())
	caller := core.NewNode(callerTr, proto.DefaultConfig())
	defer server.Close()
	defer caller.Close()
	server.Export(testsvc.ExportTest(nullImpl{}))
	cl := testsvc.NewTestClient(caller.Bind(server.Addr(), testsvc.TestName, testsvc.TestVersion))
	for i := 0; i < 16; i++ {
		if err := cl.Null(); err != nil {
			t.Fatal(err)
		}
	}
	Register("udp-caller", caller.Conn())
	defer Unregister("udp-caller")

	v := view("udp-caller", caller.Conn())
	if v.Transport == nil {
		t.Fatal("ConnView.Transport is nil for a UDP-backed conn")
	}
	if v.Transport.SendFrames < 16 || v.Transport.RecvFrames < 16 {
		t.Fatalf("transport counters too low: %+v", *v.Transport)
	}

	var sb strings.Builder
	writeMetrics(&sb)
	body := sb.String()
	for _, want := range []string{
		`fireflyrpc_transport_counter_total{conn="udp-caller",counter="send_frames"}`,
		`fireflyrpc_transport_counter_total{conn="udp-caller",counter="recv_batches"}`,
		`fireflyrpc_transport_max_send_batch{conn="udp-caller"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
}
