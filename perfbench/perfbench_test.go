package main

import (
	"encoding/json"
	"errors"
	"os"
	"sort"
	"testing"
	"time"

	"fireflyrpc/internal/core"
	"fireflyrpc/internal/kvstore"
	"fireflyrpc/internal/marshal"
	"fireflyrpc/internal/transport"
)

// spec is the part of BENCHMARK.json the benchmark must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkNames fails unless the report carries exactly the metrics in want,
// with the same units.
func checkNames(t *testing.T, what string, got map[string]metric, want []specMetric) {
	t.Helper()
	var g, w []string
	for k, m := range got {
		g = append(g, k+" "+m.Unit)
	}
	for _, m := range want {
		w = append(w, m.Name+" "+m.Unit)
	}
	sort.Strings(g)
	sort.Strings(w)
	if len(g) != len(w) {
		t.Fatalf("%s: emitted %d metrics, BENCHMARK.json names %d:\n got %v\nwant %v", what, len(g), len(w), g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: emitted %q, BENCHMARK.json has %q", what, g[i], w[i])
		}
	}
}

func TestWorkloadsMatchSpec(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench has %d", len(s.Workloads), len(workloads))
	}
	for _, sw := range s.Workloads {
		if _, ok := workloadByName(sw.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not a perfbench workload", sw.Name)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced: no op may
// fail, and the metric names and units must be exactly BENCHMARK.json's.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			rep, err := runTimed(w, options{seed: 7}, 300*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("timed run: attempted %d failed %d", rep.Attempted, rep.Failed)
			}
			checkNames(t, "timed run", rep.Metrics, s.EndToEnd)
			for name, m := range rep.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}

			rep, err = runTraced(w, options{seed: 7}, 400*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("traced run: attempted %d failed %d", rep.Attempted, rep.Failed)
			}
			checkNames(t, "traced run", rep.Metrics, s.PerLayer)
			if v := rep.Metrics["proto.stage_sum_us"].Value; v <= 0 {
				t.Errorf("proto.stage_sum_us = %v: no call was accounted", v)
			}
		})
	}
}

// TestSeamKeepsBatching pins that the timing wrapper neither adds nor
// removes the batched datapath, forwards the transport's counters, and
// hands a batch to the inner transport as one send.
func TestSeamKeepsBatching(t *testing.T) {
	batch, err := transport.ListenUDPBatch("127.0.0.1:0", transport.UDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer batch.Close()
	single, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	mem := transport.NewExchange().Port("p")
	defer mem.Close()

	var s seam
	for _, inner := range []transport.Transport{batch, single, mem} {
		wrapped := s.wrap(inner)
		if got, want := transport.SupportsBatch(wrapped), transport.SupportsBatch(inner); got != want {
			t.Errorf("%T: SupportsBatch(wrapped) = %v, inner %v", inner, got, want)
		}
		_, innerOK := inner.(transport.StatsReporter)
		_, gotOK := wrapped.(transport.StatsReporter).TransportStats()
		if gotOK != innerOK {
			t.Errorf("%T: wrapped TransportStats ok = %v, inner reports stats: %v", inner, gotOK, innerOK)
		}
	}
	if !transport.SupportsBatch(batch) {
		t.Fatal("ListenUDPBatch offers no batched datapath on this platform")
	}

	wrapped := s.wrap(batch)
	single.SetReceiver(func(transport.Addr, []byte) {})
	frames := make([]transport.Frame, 8)
	for i := range frames {
		frames[i] = transport.Frame{Dst: single.LocalAddr(), Data: []byte{byte(i)}}
	}
	before, _ := wrapped.(transport.StatsReporter).TransportStats()
	n, err := wrapped.(transport.BatchSender).SendBatch(frames)
	if err != nil || n != len(frames) {
		t.Fatalf("SendBatch sent %d of %d: %v", n, len(frames), err)
	}
	after, _ := wrapped.(transport.StatsReporter).TransportStats()
	sent, calls := after.SendFrames-before.SendFrames, after.SendBatches-before.SendBatches
	if sent != int64(len(frames)) || calls < 1 || sent <= calls {
		t.Fatalf("inner transport sent %d frames in %d sends, want %d frames in fewer sends", sent, calls, len(frames))
	}
	if got := s.framesSent.Load(); got != int64(len(frames)) {
		t.Fatalf("seam counted %d frames sent, want %d", got, len(frames))
	}
}

// opsFailed builds w with opt and counts the failed ops among n.
func opsFailed(t *testing.T, w string, opt options, n int) int {
	t.Helper()
	wl, _ := workloadByName(w)
	r, err := wl.build(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	failed := 0
	for i := 0; i < n; i++ {
		if _, err := r.op(); err != nil {
			if !errors.Is(err, errCheck) {
				t.Fatalf("op %d: %v, want an output-check failure", i, err)
			}
			failed++
		}
	}
	return failed
}

func TestWrongReverseFails(t *testing.T) {
	unreversed := func(dst, src []byte) { copy(dst, src) }
	if n := opsFailed(t, "bulk64k_udp", options{seed: 1, reverse: unreversed}, 20); n != 20 {
		t.Fatalf("%d of 20 unreversed answers failed, want all", n)
	}
}

// lyingReplica serves a store correctly except that Get claims a version
// one newer than the one held.
func lyingReplica(st *kvstore.Store) *core.Interface {
	return core.NewInterface(kvstore.IfaceName, kvstore.IfaceVersion).
		Proc(kvstore.ProcPut, func(_ transport.Addr, d *marshal.Dec) ([]byte, error) {
			key, ver, val := d.String(), d.Uint64(), d.AliasVarBytes()
			if err := d.Err(); err != nil {
				return nil, err
			}
			applied := st.Apply(key, ver, val)
			_, held, _ := st.Get(key)
			return core.Reply(1+8, func(e *marshal.Enc) {
				e.PutBool(applied)
				e.PutUint64(held)
			})
		}).
		Proc(kvstore.ProcGet, func(_ transport.Addr, d *marshal.Dec) ([]byte, error) {
			key := d.String()
			if err := d.Err(); err != nil {
				return nil, err
			}
			val, ver, ok := st.Get(key)
			if ok {
				ver++
			}
			return core.Reply(1+8+4+len(val), func(e *marshal.Enc) {
				e.PutBool(ok)
				e.PutUint64(ver)
				e.PutVarBytes(val)
			})
		})
}

func TestLyingReplicaFails(t *testing.T) {
	n := 0
	replica := func(st *kvstore.Store) *core.Interface {
		n++
		if n == 1 {
			return lyingReplica(st)
		}
		return st.Export()
	}
	if failed := opsFailed(t, "kv_udp", options{seed: 1, replica: replica}, 500); failed == 0 {
		t.Fatal("a replica claiming newer versions went unnoticed in 500 ops")
	}
}

// TestFailedOpsNotCounted runs a phase in which every other op fails: the
// failures count as attempted, and the per-op figures divide by the
// successful ops only.
func TestFailedOpsNotCounted(t *testing.T) {
	n := 0
	r := newRun(options{})
	r.op = func() (time.Duration, error) {
		n++
		if n%2 == 0 {
			return 0, errCheck
		}
		time.Sleep(time.Microsecond)
		return time.Microsecond, nil
	}
	ph := measure(r, 50*time.Millisecond)
	if ph.failed == 0 || ph.ok+ph.failed != ph.attempted {
		t.Fatalf("attempted %d, ok %d, failed %d", ph.attempted, ph.ok, ph.failed)
	}
	m := ph.endToEnd()
	if got, want := m["ops_per_s"].Value, float64(ph.ok)/ph.secs; got != want {
		t.Fatalf("ops_per_s = %v, want successful ops / s = %v", got, want)
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := 1; v <= 100000; v++ {
		h.add(time.Duration(v))
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 100000 / 1e3
		if got := h.quantileUs(q); got < want*0.99 || got > want*1.01 {
			t.Errorf("q%.2f = %.3f us, want %.3f ± 1%%", q, got, want)
		}
	}
}
