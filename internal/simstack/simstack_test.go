package simstack

import (
	"bytes"
	"testing"

	"fireflyrpc/internal/costmodel"
	"fireflyrpc/internal/faultnet"
	"fireflyrpc/internal/firefly"
	"fireflyrpc/internal/wire"
)

// runOneCall drives a single thread through one call and returns its error.
func runOneCall(w *World, spec *ProcSpec, args, result []byte, local bool) error {
	var err error
	var client *Client
	if local {
		client = w.BindLocal()
	} else {
		client = w.BindTest()
	}
	w.Caller.Sched.SpawnProc("t", func(p *firefly.Proc) {
		if local {
			err = client.LocalCall(p, spec, args, result)
		} else {
			err = client.Call(p, spec, args, result)
		}
		w.K.Stop()
	})
	w.K.Run()
	return err
}

func TestNullLatencyMatchesPaper(t *testing.T) {
	cfg := costmodel.NewConfig()
	w := NewWorld(&cfg, 1)
	r := w.Run(NullSpec(&cfg), 1, 500)
	lat := r.LatencyMicros()
	// Paper Table I: 2661 µs per call with 1 thread (±5% tolerance: the
	// paper's own accounting closed to within 5%).
	if lat < 2530 || lat < 2500 || lat > 2790 {
		t.Fatalf("Null latency = %.0f µs, want 2661 ± 5%%", lat)
	}
	if r.Errors != 0 {
		t.Fatalf("%d call errors", r.Errors)
	}
}

func TestMaxResultLatencyMatchesPaper(t *testing.T) {
	cfg := costmodel.NewConfig()
	w := NewWorld(&cfg, 1)
	r := w.Run(MaxResultSpec(&cfg), 1, 300)
	lat := r.LatencyMicros()
	// Paper Table I: 6347 µs; our model over-accounts by ~5% just as the
	// paper's did (Table VIII over-accounts by 177 µs).
	if lat < 6000 || lat > 7000 {
		t.Fatalf("MaxResult latency = %.0f µs, want 6347 ± 10%%", lat)
	}
}

func TestNullSaturationMatchesPaper(t *testing.T) {
	cfg := costmodel.NewConfig()
	w := NewWorld(&cfg, 1)
	r := w.Run(NullSpec(&cfg), 6, 3000)
	rate := r.CallsPerSecond()
	// Paper Table I: ~680-741 calls/second at 6-7 threads.
	if rate < 640 || rate > 820 {
		t.Fatalf("Null saturation = %.0f calls/s, want ~740 ± 10%%", rate)
	}
}

func TestMaxResultThroughputMatchesPaper(t *testing.T) {
	cfg := costmodel.NewConfig()
	w := NewWorld(&cfg, 1)
	r := w.Run(MaxResultSpec(&cfg), 5, 2500)
	mbps := r.MegabitsPerSecond(wire.MaxSinglePacketPayload)
	// Paper Table I: 4.65-4.70 Mb/s at saturation.
	if mbps < 4.2 || mbps > 5.1 {
		t.Fatalf("MaxResult throughput = %.2f Mb/s, want ~4.65 ± 10%%", mbps)
	}
	// §2.1: about 1.2 CPUs on the caller, slightly less on the server.
	if r.CallerCPU < 0.9 || r.CallerCPU > 1.5 {
		t.Errorf("caller CPU = %.2f, want ~1.2", r.CallerCPU)
	}
	if r.ServerCPU >= r.CallerCPU {
		t.Errorf("server CPU (%.2f) should be below caller CPU (%.2f)", r.ServerCPU, r.CallerCPU)
	}
}

func TestMaxResultPayloadRoundTrip(t *testing.T) {
	cfg := costmodel.NewConfig()
	w := NewWorld(&cfg, 1)
	spec := MaxResultSpec(&cfg)
	result := make([]byte, spec.ResultBytes)
	if err := runOneCall(w, spec, nil, result, false); err != nil {
		t.Fatal(err)
	}
	// The handler writes byte(i) at each position; the caller stub's single
	// copy must deliver exactly that.
	for i, b := range result {
		if b != byte(i) {
			t.Fatalf("result[%d] = %d, want %d", i, b, byte(i))
		}
	}
}

func TestMaxArgPayloadReachesServer(t *testing.T) {
	cfg := costmodel.NewConfig()
	w := NewWorld(&cfg, 1)
	spec := w.Test.Procs[ProcMaxArg] // the instance the server dispatches to
	var got []byte
	spec.Handler = func(args, result []byte) {
		got = append([]byte(nil), args...)
	}
	args := make([]byte, spec.ArgBytes)
	for i := range args {
		args[i] = byte(255 - i%251)
	}
	if err := runOneCall(w, spec, args, nil, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, args) {
		t.Fatal("server saw different argument bytes than the caller sent")
	}
}

func TestUnknownProcedureRejected(t *testing.T) {
	cfg := costmodel.NewConfig()
	w := NewWorld(&cfg, 1)
	bogus := &ProcSpec{ID: 99, Name: "Bogus"}
	err := runOneCall(w, bogus, nil, nil, false)
	if err != ErrUnbound {
		t.Fatalf("err = %v, want ErrUnbound", err)
	}
}

func TestRetransmissionRecoversLoss(t *testing.T) {
	cfg := costmodel.NewConfig()
	w := NewWorld(&cfg, 42)
	w.Seg.SetFaulter(faultnet.Loss(0.2).SimFaulter(42, w.K)) // drop a fifth of all frames
	r := w.Run(NullSpec(&cfg), 2, 120)
	if r.Errors != 0 {
		t.Fatalf("%d calls failed despite retransmission", r.Errors)
	}
	if w.CallerStack.Stats.Retransmits == 0 {
		t.Fatal("no retransmissions under 20% loss")
	}
	// Duplicate-suppression: retransmitted calls that raced their results
	// must not re-execute the procedure.
	if w.ServerStack.Stats.ResultsSent > int64(r.Calls)+w.ServerStack.Stats.ResultRetrans+20 {
		t.Fatalf("server executed too many calls: %+v", w.ServerStack.Stats)
	}
}

func TestDuplicateCallGetsRetainedResult(t *testing.T) {
	// Drop only result packets so the caller retransmits and the server
	// must answer from its retained result packet without re-executing.
	cfg := costmodel.NewConfig()
	w := NewWorld(&cfg, 7)
	executions := 0
	spec := w.Test.Procs[ProcNull]
	spec.Handler = func(args, result []byte) { executions++ }

	client := w.BindTest()
	w.Caller.Sched.SpawnProc("t", func(p *firefly.Proc) {
		if err := client.Call(p, spec, nil, nil); err != nil {
			t.Errorf("first call failed: %v", err)
		}
		w.K.Stop()
	})
	// Lose the first result: there is no direct hook, so approximate with
	// high loss during the first exchange only.
	sf := faultnet.Loss(0.5).SimFaulter(7, w.K)
	w.Seg.SetFaulter(sf)
	w.K.After(1e9, func() { sf.Impairer().SetProfile(faultnet.Profile{}) }) // heal after 1 virtual second
	w.K.Run()
	if w.ServerStack.Stats.DupCalls > 0 && w.ServerStack.Stats.ResultRetrans == 0 {
		t.Fatal("duplicate call did not trigger result retransmission")
	}
}

func TestCallFailsAfterRetransmitLimit(t *testing.T) {
	cfg := costmodel.NewConfig()
	w := NewWorld(&cfg, 3)
	w.Seg.SetFaulter(faultnet.Loss(1.0).SimFaulter(3, w.K)) // nothing gets through
	err := runOneCall(w, NullSpec(&cfg), nil, nil, false)
	if err != ErrCallFailed {
		t.Fatalf("err = %v, want ErrCallFailed", err)
	}
	if int(w.CallerStack.Stats.Retransmits) != cfg.MaxRetransmits() {
		t.Fatalf("retransmits = %d, want %d", w.CallerStack.Stats.Retransmits, cfg.MaxRetransmits())
	}
}

func TestBufferPoolBalancedAfterRun(t *testing.T) {
	cfg := costmodel.NewConfig()
	w := NewWorld(&cfg, 1)
	r := w.Run(NullSpec(&cfg), 3, 600)
	if r.Errors != 0 {
		t.Fatal("errors during run")
	}
	// All caller-side buffers must be back in the pool: call packets are
	// recycled when results arrive, result packets freed by the Ender.
	cs := w.CallerStack.Pool.Stats()
	if cs.InUse != 0 {
		t.Fatalf("caller pool leaks %d buffers", cs.InUse)
	}
	// The server retains at most one result buffer per activity for
	// retransmission — exactly the paper's scheme.
	ss := w.ServerStack.Pool.Stats()
	if ss.InUse > 3 {
		t.Fatalf("server pool holds %d buffers, want ≤ 3 (one retained result per activity)", ss.InUse)
	}
}

func TestLocalNullLatencyMatchesFootnote(t *testing.T) {
	cfg := costmodel.NewConfig()
	cfg.TimingJitter = 0
	w := NewWorld(&cfg, 1)
	w.RegisterLocal(2)
	client := w.BindLocal()
	var start, end int64
	w.Caller.Sched.SpawnProc("t", func(p *firefly.Proc) {
		// Warm one call, then measure.
		if err := client.LocalCall(p, NullSpec(&cfg), nil, nil); err != nil {
			t.Errorf("local call: %v", err)
		}
		start = int64(p.Now())
		if err := client.LocalCall(p, NullSpec(&cfg), nil, nil); err != nil {
			t.Errorf("local call: %v", err)
		}
		end = int64(p.Now())
		w.K.Stop()
	})
	w.K.Run()
	lat := float64(end-start) / 1000
	// Footnote to §2.2: local RPC to Null() takes 937 µs.
	if lat < 880 || lat > 1000 {
		t.Fatalf("local Null latency = %.0f µs, want ~937", lat)
	}
}

func TestLocalCallPayloadRoundTrip(t *testing.T) {
	cfg := costmodel.NewConfig()
	w := NewWorld(&cfg, 1)
	w.RegisterLocal(2)
	spec := MaxResultSpec(&cfg)
	result := make([]byte, spec.ResultBytes)
	if err := runOneCall(w, spec, nil, result, true); err != nil {
		t.Fatal(err)
	}
	for i, b := range result[:64] {
		if b != byte(i) {
			t.Fatalf("local result[%d] = %d, want %d", i, b, byte(i))
		}
	}
}

func TestExerciserStubsFaster(t *testing.T) {
	std := costmodel.NewConfig()
	ws := NewWorld(&std, 1)
	rs := ws.Run(NullSpec(&std), 1, 400)

	ex := costmodel.NewConfig()
	ex.ExerciserStubs = true
	we := NewWorld(&ex, 1)
	re := we.Run(NullSpec(&ex), 1, 400)

	diff := rs.LatencyMicros() - re.LatencyMicros()
	// §5: hand stubs are 140 µs faster for Null().
	if diff < 100 || diff > 180 {
		t.Fatalf("exerciser stubs save %.0f µs, want ~140", diff)
	}
}

func TestUniprocessorSharplySlower(t *testing.T) {
	multi := costmodel.NewConfig()
	multi.ExerciserStubs = true
	multi.SwappedLines = true
	wm := NewWorld(&multi, 1)
	rm := wm.Run(NullSpec(&multi), 1, 400)

	uni := costmodel.NewConfig()
	uni.CallerCPUs = 1
	uni.ExerciserStubs = true
	uni.SwappedLines = true
	wu := NewWorld(&uni, 1)
	ru := wu.Run(NullSpec(&uni), 1, 400)

	// Table X: 1/5 is ~47% slower than 5/5 (3.96 s vs 2.69 s per 1000).
	ratio := ru.LatencyMicros() / rm.LatencyMicros()
	if ratio < 1.3 || ratio > 1.8 {
		t.Fatalf("uniprocessor caller ratio = %.2f, want ~1.47", ratio)
	}
}

func TestUnswappedUniprocLosesPackets(t *testing.T) {
	cfg := costmodel.NewConfig()
	cfg.CallerCPUs = 1
	cfg.ServerCPUs = 1
	cfg.ExerciserStubs = true
	cfg.SwappedLines = false // the §5 bug present
	w := NewWorld(&cfg, 5)
	r := w.Run(NullSpec(&cfg), 1, 600)
	drops := w.CallerStack.Stats.UnswappedDrops + w.ServerStack.Stats.UnswappedDrops
	if drops == 0 {
		t.Skip("no drops occurred in this seed's 600 calls; statistical")
	}
	// Each drop costs a ~600 ms retransmission: mean latency balloons well
	// beyond the fixed version's ~4.8 ms (the paper saw ~20 ms averages).
	if r.LatencyMicros() < 5400 {
		t.Fatalf("unswapped uniproc latency = %.0f µs; expected >> 4800 with %d drops",
			r.LatencyMicros(), drops)
	}
	if w.CallerStack.Stats.Retransmits == 0 && w.ServerStack.Stats.ResultRetrans == 0 {
		t.Fatal("drops occurred but no retransmissions recovered them")
	}
}

func TestBusyWaitSavesWakeups(t *testing.T) {
	std := costmodel.NewConfig()
	ws := NewWorld(&std, 1)
	rs := ws.Run(NullSpec(&std), 1, 400)

	bw := costmodel.NewConfig()
	bw.BusyWait = true
	wb := NewWorld(&bw, 1)
	rb := wb.Run(NullSpec(&bw), 1, 400)

	saved := rs.LatencyMicros() - rb.LatencyMicros()
	// §4.2.7 estimates ~440 µs saved per RPC (two wakeups).
	if saved < 320 || saved > 520 {
		t.Fatalf("busy wait saves %.0f µs, want ~400-440", saved)
	}
}

func TestInterruptImplSlowdown(t *testing.T) {
	asm := costmodel.NewConfig()
	wa := NewWorld(&asm, 1)
	ra := wa.Run(NullSpec(&asm), 1, 400)

	mod := costmodel.NewConfig()
	mod.Interrupt = costmodel.InterruptOriginalModula
	wm := NewWorld(&mod, 1)
	rm := wm.Run(NullSpec(&mod), 1, 400)

	// Table IX: 758 vs 177 µs per interrupt, two receive interrupts per
	// RPC: expect ~1160 µs slower.
	diff := rm.LatencyMicros() - ra.LatencyMicros()
	if diff < 950 || diff > 1400 {
		t.Fatalf("original Modula-2+ interrupt routine adds %.0f µs, want ~1160", diff)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (float64, Counters) {
		cfg := costmodel.NewConfig()
		w := NewWorld(&cfg, 1234)
		r := w.Run(NullSpec(&cfg), 3, 300)
		return r.LatencyMicros(), w.CallerStack.Stats
	}
	l1, c1 := run()
	l2, c2 := run()
	if l1 != l2 || c1 != c2 {
		t.Fatalf("same seed produced different runs: %v vs %v", l1, l2)
	}
}

func TestIntArgsSpecPayload(t *testing.T) {
	cfg := costmodel.NewConfig()
	for _, n := range []int{1, 2, 4} {
		spec := IntArgsSpec(&cfg, n)
		if spec.ArgBytes != 4*n {
			t.Errorf("IntArgs(%d) payload = %d, want %d", n, spec.ArgBytes, 4*n)
		}
	}
	if TextArgSpec(&cfg, 128, false).ArgBytes != 1+4+128 {
		t.Error("TextArg(128) payload wrong")
	}
	if TextArgSpec(&cfg, 0, true).ArgBytes != 1 {
		t.Error("NIL TextArg payload wrong")
	}
}

func TestInterfaceSpecDuplicatePanics(t *testing.T) {
	cfg := costmodel.NewConfig()
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate proc id did not panic")
		}
	}()
	NewInterface("Dup", 1, NullSpec(&cfg), NullSpec(&cfg))
}

func TestServerThreadShortage(t *testing.T) {
	// With a single server thread and 3 concurrent callers, calls must
	// still complete via the pending queue (the slower path).
	cfg := costmodel.NewConfig()
	cfg.ServerThreads = 1
	w := NewWorld(&cfg, 1)
	r := w.Run(NullSpec(&cfg), 3, 300)
	if r.Errors != 0 {
		t.Fatalf("%d errors with a single server thread", r.Errors)
	}
	if w.ServerStack.Stats.PendingQueued == 0 {
		t.Fatal("expected some calls to take the pending (no-thread-waiting) path")
	}
}

func TestLatencyPercentiles(t *testing.T) {
	cfg := costmodel.NewConfig()
	w := NewWorld(&cfg, 1)
	r := w.Run(NullSpec(&cfg), 3, 600)
	if r.P50Micros <= 0 || r.P95Micros < r.P50Micros || r.MaxMicros < r.P95Micros {
		t.Fatalf("percentiles disordered: p50=%v p95=%v max=%v", r.P50Micros, r.P95Micros, r.MaxMicros)
	}
	// With three threads the median sits above the single-thread latency
	// but within the same order of magnitude.
	if r.P50Micros < 2500 || r.P50Micros > 15000 {
		t.Fatalf("p50 = %v µs out of plausible range", r.P50Micros)
	}
}
