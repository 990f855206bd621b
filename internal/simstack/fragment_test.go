package simstack

import (
	"testing"

	"fireflyrpc/internal/costmodel"
	"fireflyrpc/internal/faultnet"
	"fireflyrpc/internal/wire"
)

func TestFragmentedArgsRoundTrip(t *testing.T) {
	cfg := costmodel.NewConfig()
	w := NewWorld(&cfg, 1)
	const n = 5000 // four fragments
	spec := &ProcSpec{
		ID:       77,
		Name:     "BigArgs",
		ArgBytes: n,
		Service:  cfg.NullProc(),
	}
	var got []byte
	spec.Handler = nil
	serverSpec := &ProcSpec{
		ID:       77,
		Name:     "BigArgs",
		ArgBytes: n,
		Service:  cfg.NullProc(),
		Handler:  func(args, result []byte) { got = append([]byte(nil), args...) },
	}
	w.RegisterProc(serverSpec)
	args := make([]byte, n)
	for i := range args {
		args[i] = byte(i * 13)
	}
	if err := runOneCall(w, spec, args, nil, false); err != nil {
		t.Fatal(err)
	}
	// The handler only sees args when ResultBytes==0... it is invoked in
	// sendSinglePacketResult/sendFragmentedResult; ResultBytes==0 means
	// single in-place path with empty result.
	if len(got) != n {
		t.Fatalf("server saw %d arg bytes, want %d", len(got), n)
	}
	for i, b := range got {
		if b != byte(i*13) {
			t.Fatalf("args[%d] = %d, want %d", i, b, byte(i*13))
		}
	}
	if w.CallerStack.Stats.FragmentsSent != 4 {
		t.Fatalf("caller sent %d fragments, want 4", w.CallerStack.Stats.FragmentsSent)
	}
}

func TestStreamedResultRoundTrip(t *testing.T) {
	cfg := costmodel.NewConfig()
	w := NewWorld(&cfg, 1)
	const packets = 8
	spec := StreamResultSpec(&cfg, packets*wire.MaxSinglePacketPayload)
	w.RegisterProc(spec)
	result := make([]byte, spec.ResultBytes)
	if err := runOneCall(w, spec, nil, result, false); err != nil {
		t.Fatal(err)
	}
	for i, b := range result {
		if b != byte(i*7) {
			t.Fatalf("result[%d] = %d, want %d", i, b, byte(i*7))
		}
	}
	// One wakeup at the caller despite 8 result packets: that is the point
	// of streaming. (Wakeups == calls processed + the barrier machinery.)
	if w.ServerStack.Stats.FragmentsSent < packets {
		t.Fatalf("server sent %d fragments, want ≥ %d", w.ServerStack.Stats.FragmentsSent, packets)
	}
}

func TestStreamingBeatsThreadsOnUniprocessor(t *testing.T) {
	const packets = 8
	// Parallel threads on 1/1 processors.
	cfgT := costmodel.NewConfig()
	cfgT.CallerCPUs, cfgT.ServerCPUs = 1, 1
	cfgT.ExerciserStubs = true
	cfgT.SwappedLines = true
	wT := NewWorld(&cfgT, 1)
	rT := wT.Run(MaxResultSpec(&cfgT), 4, 1200)
	threadMbps := rT.MegabitsPerSecond(wire.MaxSinglePacketPayload)

	// Streaming, one thread, same processors.
	cfgS := costmodel.NewConfig()
	cfgS.CallerCPUs, cfgS.ServerCPUs = 1, 1
	cfgS.ExerciserStubs = true
	cfgS.SwappedLines = true
	wS := NewWorld(&cfgS, 1)
	spec := StreamResultSpec(&cfgS, packets*wire.MaxSinglePacketPayload)
	wS.RegisterProc(spec)
	rS := wS.Run(spec, 1, 400)
	streamMbps := rS.MegabitsPerSecond(packets * wire.MaxSinglePacketPayload)

	// §5: streaming needs fewer context switches, so it should win on the
	// uniprocessor by a clear margin.
	if streamMbps < threadMbps*1.2 {
		t.Fatalf("streaming %.2f Mb/s vs threads %.2f Mb/s; expected streaming ≥ 1.2×", streamMbps, threadMbps)
	}
}

func TestFragmentedLossRecovery(t *testing.T) {
	cfg := costmodel.NewConfig()
	w := NewWorld(&cfg, 11)
	w.Seg.SetFaulter(faultnet.Loss(0.1).SimFaulter(11, w.K))
	spec := StreamResultSpec(&cfg, 3*wire.MaxSinglePacketPayload)
	w.RegisterProc(spec)
	r := w.Run(spec, 1, 100)
	if r.Errors != 0 {
		t.Fatalf("%d streamed calls failed under 10%% loss", r.Errors)
	}
	if w.CallerStack.Stats.Retransmits == 0 && w.ServerStack.Stats.ResultRetrans == 0 {
		t.Fatal("loss occurred but no retransmissions")
	}
}

func TestTraditionalDemuxSlower(t *testing.T) {
	base := costmodel.NewConfig()
	wb := NewWorld(&base, 1)
	rb := wb.Run(NullSpec(&base), 1, 400)

	trad := costmodel.NewConfig()
	trad.TraditionalDemux = true
	wt := NewWorld(&trad, 1)
	rt := wt.Run(NullSpec(&trad), 1, 400)

	delta := rt.LatencyMicros() - rb.LatencyMicros()
	// Two extra wakeups (one per packet) plus datalink demux work: the
	// §3.2 "doubles the number of wakeups" penalty, roughly 2×(220+79+100)
	// ≈ 800 µs per call.
	if delta < 500 || delta > 1100 {
		t.Fatalf("traditional demux adds %.0f µs, want ~800", delta)
	}
	if wt.CallerStack.Stats.DatalinkWakeups == 0 {
		t.Fatal("datalink thread never woken")
	}
}

func TestSecureBuffersSlower(t *testing.T) {
	base := costmodel.NewConfig()
	wb := NewWorld(&base, 1)
	rb := wb.Run(MaxResultSpec(&base), 1, 300)

	sec := costmodel.NewConfig()
	sec.SecureBuffers = true
	ws := NewWorld(&sec, 1)
	rs := ws.Run(MaxResultSpec(&sec), 1, 300)

	delta := rs.LatencyMicros() - rb.LatencyMicros()
	// Copies of the 74-byte call at the server and the 1514-byte result at
	// the caller: ~(40+22) + (40+454) ≈ 560 µs.
	if delta < 350 || delta > 800 {
		t.Fatalf("secure buffers add %.0f µs on MaxResult, want ~560", delta)
	}
}

func TestFragmentLimit(t *testing.T) {
	cfg := costmodel.NewConfig()
	w := NewWorld(&cfg, 1)
	spec := &ProcSpec{ID: 99, Name: "Huge", ArgBytes: (maxFragments + 1) * wire.MaxSinglePacketPayload}
	err := runOneCall(w, spec, make([]byte, spec.ArgBytes), nil, false)
	if err != ErrTooLong {
		t.Fatalf("err = %v, want ErrTooLong", err)
	}
}

func TestBufferPoolBalancedAfterStreaming(t *testing.T) {
	cfg := costmodel.NewConfig()
	w := NewWorld(&cfg, 1)
	spec := StreamResultSpec(&cfg, 4*wire.MaxSinglePacketPayload)
	w.RegisterProc(spec)
	r := w.Run(spec, 2, 200)
	if r.Errors != 0 {
		t.Fatal("errors during streamed run")
	}
	if got := w.CallerStack.Pool.Stats().InUse; got != 0 {
		t.Fatalf("caller pool leaks %d buffers after streaming", got)
	}
	// Server retains the last result's fragments per activity (2 clients ×
	// 4 fragments), nothing more.
	if got := w.ServerStack.Pool.Stats().InUse; got > 8 {
		t.Fatalf("server pool holds %d buffers, want ≤ 8 retained", got)
	}
}

func TestBufferExhaustionRecovered(t *testing.T) {
	// A tiny receive pool on the server drops packets when it runs dry —
	// the paper's behavior when the controller's receive queue is empty —
	// and retransmission recovers.
	cfg := costmodel.NewConfig()
	k := NewWorld(&cfg, 21)
	// Replace the server stack's pool with a tight one: barely more than
	// the four retained results the activities pin, so bursts run it dry.
	k.ServerStack.Pool = newTinyPool(6)
	r := k.Run(NullSpec(&cfg), 4, 200)
	if r.Errors != 0 {
		t.Fatalf("%d calls failed despite retransmission", r.Errors)
	}
	if k.ServerStack.Stats.BufferDrops == 0 {
		t.Skip("pool never exhausted in this schedule")
	}
	if k.CallerStack.Stats.Retransmits == 0 {
		t.Fatal("drops occurred but no retransmissions recovered them")
	}
}
