package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"fireflyrpc/internal/marshal"
	"fireflyrpc/internal/proto"
	"fireflyrpc/internal/transport"
)

// seam counts and times every frame crossing the transport.Transport seam
// of every node in a traced build.
type seam struct {
	framesSent, bytesSent, sendNs atomic.Int64
	framesRecv, recvNs            atomic.Int64
	goroutinesMax                 atomic.Int64
}

func (s *seam) wrap(inner transport.Transport) transport.Transport {
	return &seamTransport{inner: inner, s: s}
}

// noteGoroutines records the live goroutine count. It is sampled on every
// send, which runs inside each op, so goroutines a fanout spawns for the op
// are seen.
func (s *seam) noteGoroutines() {
	n := int64(runtime.NumGoroutine())
	for {
		cur := s.goroutinesMax.Load()
		if n <= cur || s.goroutinesMax.CompareAndSwap(cur, n) {
			return
		}
	}
}

// seamTransport is the timing wrapper. It forwards the optional batched
// datapath (transport.BatchSender) and the transport's own counters
// (transport.StatsReporter): without SendBatch, proto would fall back to
// per-frame sends and a traced run would measure a different program.
type seamTransport struct {
	inner transport.Transport
	s     *seam
}

func (t *seamTransport) Send(dst transport.Addr, frame []byte) error {
	t0 := time.Now()
	err := t.inner.Send(dst, frame)
	t.s.sendNs.Add(int64(time.Since(t0)))
	t.s.framesSent.Add(1)
	t.s.bytesSent.Add(int64(len(frame)))
	t.s.noteGoroutines()
	return err
}

// SendBatch is only called when BatchEnabled, that is when the inner
// transport is a BatchSender with batching on.
func (t *seamTransport) SendBatch(frames []transport.Frame) (int, error) {
	t0 := time.Now()
	n, err := t.inner.(transport.BatchSender).SendBatch(frames)
	t.s.sendNs.Add(int64(time.Since(t0)))
	t.s.framesSent.Add(int64(n))
	var b int64
	for _, f := range frames[:n] {
		b += int64(len(f.Data))
	}
	t.s.bytesSent.Add(b)
	t.s.noteGoroutines()
	return n, err
}

func (t *seamTransport) BatchEnabled() bool { return transport.SupportsBatch(t.inner) }

func (t *seamTransport) TransportStats() (transport.Stats, bool) {
	if sr, ok := t.inner.(transport.StatsReporter); ok {
		return sr.TransportStats()
	}
	return transport.Stats{}, false
}

func (t *seamTransport) SetReceiver(r transport.Receiver) {
	t.inner.SetReceiver(func(src transport.Addr, frame []byte) {
		t0 := time.Now()
		r(src, frame)
		t.s.recvNs.Add(int64(time.Since(t0)))
		t.s.framesRecv.Add(1)
	})
}

func (t *seamTransport) LocalAddr() transport.Addr { return t.inner.LocalAddr() }
func (t *seamTransport) MaxFrame() int             { return t.inner.MaxFrame() }
func (t *seamTransport) Close() error              { return t.inner.Close() }

// clockBase anchors the handler stamps: sums of nanoseconds since it.
var clockBase = time.Now()

// stamps are taken by the benchmark's own procedures (server side) and
// around each call (caller side). Only sums are kept: over a phase in which
// every started call is handled and returns, the mean request path is
// (Σ handler entry − Σ call start) / calls, and the reply path likewise.
type stamps struct {
	entrySum, exitSum, busyNs, handled atomic.Int64
	startSum, endSum, calls            int64 // caller goroutine only
}

func (s *stamps) enter() int64 {
	t := int64(time.Since(clockBase))
	s.entrySum.Add(t)
	return t
}

func (s *stamps) exit(t0 int64) {
	t := int64(time.Since(clockBase))
	s.exitSum.Add(t)
	s.busyNs.Add(t - t0)
	s.handled.Add(1)
}

func (s *stamps) call(start, end time.Time) {
	s.startSum += int64(start.Sub(clockBase))
	s.endSum += int64(end.Sub(clockBase))
	s.calls++
}

// codec times the marshalling closures the benchmark hands to
// core.Client; the caller goroutine runs them all.
type codec struct{ encNs, decNs int64 }

// enc wraps f with a timer; on a nil codec (untraced) f is returned as is.
func (c *codec) enc(f func(*marshal.Enc)) func(*marshal.Enc) {
	if c == nil {
		return f
	}
	return func(e *marshal.Enc) {
		t0 := time.Now()
		if f != nil {
			f(e)
		}
		c.encNs += int64(time.Since(t0))
	}
}

func (c *codec) dec(f func(*marshal.Dec)) func(*marshal.Dec) {
	if c == nil {
		return f
	}
	return func(d *marshal.Dec) {
		t0 := time.Now()
		if f != nil {
			f(d)
		}
		c.decNs += int64(time.Since(t0))
	}
}

// snapshot is every counter a traced phase takes deltas of.
type snapshot struct {
	proto                     proto.Stats
	tr                        transport.Stats
	framesSent, bytesSent     int64
	sendNs                    int64
	framesRecv, recvNs        int64
	entry, exit, busy, served int64
	start, end, calls         int64
	encNs, decNs              int64
	issued, fanouts, hedges   int64
	applies                   int64
	getAny, get, put, stale   int64
	sched                     []uint64
	gcCycles                  uint64
}

var runtimeSamples = []string{"/sched/latencies:seconds", "/gc/cycles/total:gc-cycles"}

func take(r *run) snapshot {
	var s snapshot
	for _, n := range r.nodes {
		c := n.Conn()
		st := c.Stats()
		s.proto.Retransmits += st.Retransmits
		s.proto.DupFrags += st.DupFrags
		s.proto.AcksSent += st.AcksSent
		if ts, ok := c.TransportStats(); ok {
			s.tr.SendFrames += ts.SendFrames
			s.tr.SendBatches += ts.SendBatches
			s.tr.RecvFrames += ts.RecvFrames
			s.tr.RecvBatches += ts.RecvBatches
		}
	}
	sm := r.seam
	s.framesSent, s.bytesSent = sm.framesSent.Load(), sm.bytesSent.Load()
	s.sendNs = sm.sendNs.Load()
	s.framesRecv, s.recvNs = sm.framesRecv.Load(), sm.recvNs.Load()
	st := r.stamps
	s.entry, s.exit, s.busy, s.served = st.entrySum.Load(), st.exitSum.Load(), st.busyNs.Load(), st.handled.Load()
	s.start, s.end, s.calls = st.startSum, st.endSum, st.calls
	s.encNs, s.decNs = r.codec.encNs, r.codec.decNs
	if r.cluster != nil {
		cs := r.cluster.Stats()
		s.issued, s.fanouts, s.hedges = cs.Issued, cs.Fanouts, cs.HedgesFired
	}
	for _, store := range r.stores {
		s.applies += store.Stats().Applies
	}
	if l := r.kv; l != nil {
		s.getAny, s.get, s.put, s.stale = l.getAny, l.get, l.put, l.stale
	}
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64Histogram {
		s.sched = append([]uint64(nil), samples[0].Value.Float64Histogram().Counts...)
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		s.gcCycles = samples[1].Value.Uint64()
	}
	return s
}

// schedQuantileUs interpolates the q-quantile, in microseconds, of the
// scheduler-latency histogram counts accumulated between two snapshots.
func schedQuantileUs(before, after []uint64, q float64) float64 {
	s := []metrics.Sample{{Name: runtimeSamples[0]}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram || len(before) != len(after) {
		return 0
	}
	buckets := s[0].Value.Float64Histogram().Buckets
	d := make([]float64, len(after))
	var n float64
	for i := range after {
		d[i] = float64(after[i] - before[i])
		n += d[i]
	}
	if n == 0 {
		return 0
	}
	target := q * n
	var cum float64
	for i, c := range d {
		if c == 0 || cum+c < target {
			cum += c
			continue
		}
		lo, hi := buckets[i], buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		return (lo + (hi-lo)*(target-cum)/c) * 1e6
	}
	return 0
}

// stageNames are proto's eight accounted spans, in proto.Account order.
var stageNames = []string{
	"proto.stage.caller_send_us",
	"proto.stage.to_server_us",
	"proto.stage.server_enqueue_us",
	"proto.stage.dispatch_wait_us",
	"proto.stage.handler_us",
	"proto.stage.server_send_us",
	"proto.stage.to_caller_us",
	"proto.stage.caller_wakeup_us",
}

// traceRing is the per-Conn stage-trace ring of a traced run. The
// sampling stride is chosen so that the ring holds every sampled call of
// the traced phase, and the ladder compares the stopwatch and the stages
// over the same period.
const traceRing = 1 << 15

// runTraced measures the workload untraced for half the time (the base of
// ladder.trace_overhead), then builds a traced instance, turns stage
// tracing on once it is set up, and measures it for the other half,
// reporting the per-layer metrics.
func runTraced(w *workload, opt options, d time.Duration) (report, error) {
	ref, _, err := setup(w, opt)
	if err != nil {
		return report{}, err
	}
	c0 := ref.callsPerConn()
	refPh := measure(ref, d/2)
	c1 := ref.callsPerConn()
	ref.close()
	// The traced phase is as long as the untraced one and no faster, so
	// twice the busiest Conn's untraced calls bounds its sampled records.
	var busiest int64
	for i := range c1 {
		busiest = max(busiest, c1[i]-c0[i])
	}
	sampleN := int(2*busiest/traceRing) + 1

	topt := opt
	topt.traced = true
	r, _, err := setup(w, topt)
	if err != nil {
		return report{}, err
	}
	defer r.close()
	for _, n := range r.nodes {
		n.Conn().SetTracing(sampleN, traceRing)
	}
	if r.kv != nil {
		r.kv.getAnyH.reset()
		r.kv.getH.reset()
		r.kv.putH.reset()
	}
	before := take(r)
	ph := measure(r, d/2)
	after := take(r)

	m, ladder, err := layerMetrics(r, before, after, ph, refPh, sampleN)
	if err != nil {
		return report{}, err
	}
	fmt.Fprintf(os.Stdout, "%s %s\n", w.name, ladder)
	rep := ph.report(m)
	rep.Attempted += refPh.attempted
	rep.Failed += refPh.failed
	rep.Correct = rep.Failed == 0
	if rep.firstErr == nil {
		rep.firstErr = refPh.firstErr
	}
	return rep, nil
}

// callsPerConn returns, per node, the calls its Conn has sent plus those
// it has served: the records a traced Conn would claim at stride 1.
func (r *run) callsPerConn() []int64 {
	out := make([]int64, len(r.nodes))
	for i, n := range r.nodes {
		st := n.Conn().Stats()
		out[i] = st.CallsSent + st.CallsServed
	}
	return out
}

// counters are the protocol and transport events that show trouble on a
// clean loopback: retransmissions, duplicate fragments, and frames the
// transports dropped or failed to send or receive.
type counters struct {
	retransmits, dupFrags, drops, errs int64
}

func (r *run) protoCounters() counters {
	var c counters
	for _, n := range r.nodes {
		st := n.Conn().Stats()
		c.retransmits += st.Retransmits
		c.dupFrags += st.DupFrags
		if ts, ok := n.Conn().TransportStats(); ok {
			c.drops += ts.OversizeDrops
			c.errs += ts.SendErrors + ts.RecvErrors
		}
	}
	return c
}

func (c counters) since(b counters) string {
	return fmt.Sprintf("protocol: retransmits %d dup_frags %d | transport: drops %d send/recv errors %d",
		c.retransmits-b.retransmits, c.dupFrags-b.dupFrags, c.drops-b.drops, c.errs-b.errs)
}

// layerMetrics turns two snapshots around a traced phase into the
// per-layer metrics and the Table VIII-style ladder line.
func layerMetrics(r *run, b, a snapshot, ph, ref *phase, sampleN int) (map[string]metric, string, error) {
	ops := float64(ph.attempted)
	per := func(x int64) float64 { return float64(x) / ops }
	usPer := func(ns int64) float64 { return float64(ns) / ops / 1e3 }
	ratio := func(x, y int64) float64 {
		if y == 0 {
			return 0
		}
		return float64(x) / float64(y)
	}
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	put("runtime.sched_wait_p50_us", schedQuantileUs(b.sched, a.sched, 0.50), "us")
	put("runtime.sched_wait_p99_us", schedQuantileUs(b.sched, a.sched, 0.99), "us")
	put("runtime.gc_cycles_per_kop", float64(a.gcCycles-b.gcCycles)/ops*1e3, "count")
	put("runtime.goroutines_max", float64(r.seam.goroutinesMax.Load()), "count")

	// The handler stamps only exist on the benchmark's own procedures, and
	// the sums only pair up when every call started in the phase was
	// handled in it (kv_udp's replicas run kvstore's procedures).
	var reqUs, repUs, handlerUs float64
	if calls := a.calls - b.calls; calls > 0 && a.served-b.served == calls {
		n := float64(calls)
		reqUs = float64((a.entry-b.entry)-(a.start-b.start)) / n / 1e3
		repUs = float64((a.end-b.end)-(a.exit-b.exit)) / n / 1e3
		handlerUs = float64(a.busy-b.busy) / n / 1e3
	}
	put("core.request_path_us", reqUs, "us")
	put("core.reply_path_us", repUs, "us")
	put("handler.us_per_op", handlerUs, "us")
	encUs, decUs := usPer(a.encNs-b.encNs), usPer(a.decNs-b.decNs)
	put("marshal.enc_us_per_op", encUs, "us")
	put("marshal.dec_us_per_op", decUs, "us")

	var recs [][]proto.TraceRecord
	full := false
	for _, n := range r.nodes {
		rs := n.Conn().TraceRecords()
		full = full || len(rs) == traceRing
		recs = append(recs, rs)
	}
	acct := proto.Account(recs...)
	if len(acct.Stages) != len(stageNames) {
		return nil, "", fmt.Errorf("proto accounts %d stages, perfbench names %d", len(acct.Stages), len(stageNames))
	}
	for i, name := range stageNames {
		put(name, acct.Stages[i].MeanUs, "us")
	}
	put("proto.stage_sum_us", acct.StageSumUs, "us")
	put("proto.retransmits_per_op", per(a.proto.Retransmits-b.proto.Retransmits), "count")
	put("proto.dup_frags_per_op", per(a.proto.DupFrags-b.proto.DupFrags), "count")
	put("proto.acks_per_op", per(a.proto.AcksSent-b.proto.AcksSent), "count")

	put("transport.frames_sent_per_op", per(a.framesSent-b.framesSent), "count")
	put("transport.frames_recv_per_op", per(a.framesRecv-b.framesRecv), "count")
	put("transport.bytes_per_op", per(a.bytesSent-b.bytesSent), "B")
	put("transport.send_us_per_op", usPer(a.sendNs-b.sendNs), "us")
	put("transport.recv_cb_us_per_op", usPer(a.recvNs-b.recvNs), "us")
	// The transport's own batch counters: frames per send syscall and per
	// receive syscall.
	sendPerCall := ratio(a.tr.SendFrames-b.tr.SendFrames, a.tr.SendBatches-b.tr.SendBatches)
	recvPerBatch := ratio(a.tr.RecvFrames-b.tr.RecvFrames, a.tr.RecvBatches-b.tr.RecvBatches)
	put("transport.frames_per_send_call", sendPerCall, "count")
	put("transport.frames_per_recv_batch", recvPerBatch, "count")

	put("cluster.issued_per_op", per(a.issued-b.issued), "count")
	put("cluster.fanouts_per_op", per(a.fanouts-b.fanouts), "count")
	put("cluster.hedges_per_op", per(a.hedges-b.hedges), "count")

	var kvq [6]float64
	if l := r.kv; l != nil {
		kvq = [6]float64{
			l.getAnyH.quantileUs(0.50), l.getAnyH.quantileUs(0.99),
			l.getH.quantileUs(0.50), l.getH.quantileUs(0.99),
			l.putH.quantileUs(0.50), l.putH.quantileUs(0.99),
		}
	}
	for i, name := range []string{"getany", "get", "put"} {
		put("kvstore."+name+"_p50_us", kvq[2*i], "us")
		put("kvstore."+name+"_p99_us", kvq[2*i+1], "us")
	}
	put("kvstore.applies_per_put", ratio(a.applies-b.applies, a.put-b.put), "count")
	put("kvstore.stale_read_frac", ratio(a.stale-b.stale, a.getAny-b.getAny), "ratio")

	// The blocking path of an op: the benchmark's marshalling closures plus
	// one full proto call (start → wakeup) per call the op waits on. A
	// kv_udp GetAny or Get waits on one call (Get on the quorum's second
	// reply), a Put on two fanouts in sequence.
	blocking := 1.0
	if r.kv != nil {
		blocking = ratio((a.getAny-b.getAny)+(a.get-b.get)+2*(a.put-b.put), int64(ops))
	}
	opMean := ph.total.meanUs()
	sum := encUs + decUs + blocking*acct.StageSumUs
	put("ladder.op_mean_us", opMean, "us")
	put("ladder.blocking_sum_us", sum, "us")
	put("ladder.residual_us", opMean-sum, "us")
	overhead := 0.0
	if p := ref.endToEnd()["op_p50_us"].Value; p > 0 {
		overhead = ph.endToEnd()["op_p50_us"].Value / p
	}
	put("ladder.trace_overhead", overhead, "ratio")

	// proto's own wakeup − start over the same records, beside the
	// stopwatch: the gap is the time the benchmark's call site and core's
	// stub spend outside proto's stamps.
	line := fmt.Sprintf("ladder: Σ blocking path %.3f us = enc %.3f + dec %.3f + %.2f calls × stages %.3f | op mean %.3f us | residual %.3f us (%.1f%%) | proto e2e %.3f us, stopwatch − e2e %.3f us | %d calls accounted, 1 in %d sampled | trace overhead %.3f×",
		sum, encUs, decUs, blocking, acct.StageSumUs, opMean, opMean-sum, 100*(opMean-sum)/opMean,
		acct.E2EUs, opMean-blocking*acct.E2EUs, acct.Calls, sampleN, overhead)
	if full {
		line += " | a trace ring filled: the stages cover the phase's last calls only"
	}
	return m, line, nil
}
