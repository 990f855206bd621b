// Package proto implements the RPC packet-exchange protocol over an
// unreliable datagram transport, following Birrell & Nelson's Cedar RPC
// design as Firefly RPC did:
//
//   - On the fast path a call is one packet and its result is one packet;
//     the result implicitly acknowledges the call, and the activity's next
//     call implicitly acknowledges the result. No extra packets.
//   - Larger arguments/results travel as fragments, sent in windows of up
//     to 16 with one cumulative explicit acknowledgement per window, which
//     sends the next window from the receive path; a receiver that sees a
//     flagged fragment past a gap re-acks the last one it holds, and the
//     sender resends from the gap. The last fragment is acknowledged
//     implicitly, as a single-packet message is.
//   - The caller drives recovery: lost packets are recovered by its
//     retransmissions, with exponential backoff. A retransmitted call asks
//     for an explicit acknowledgement, so a busy server can say "still
//     working" without completing, and a server part-way through a
//     multi-fragment result answers it with the unacknowledged window.
//   - Servers suppress duplicate calls per activity and retain the last
//     result packet for retransmission until the activity's next call.
//     They keep no timer for a call and send only in reply to its packets.
//
// Beyond the 1989 single-segment design, the connection state is organized
// per peer: each remote endpoint gets a channel object holding its own
// call-table shard, duplicate-suppression state, and Jacobson/Karels
// round-trip estimator, managed through a sharded peer map that evicts
// idle peers. One runtime timer per Conn, the retransmission engine,
// drives every pending call's retransmission from one heap. It is the only
// timer a call uses, which is what makes the asynchronous call API
// (StartCall/Pending) cost no goroutine, timer or channel per in-flight
// call, of one packet or of 256. Calls take a context.Context: deadlines bound the whole exchange
// (winning over the retry budget) and cancellation releases the call-table
// entry and pooled buffers immediately, notifying the server with a
// best-effort cancel packet.
//
// The fast path is engineered the way §4.2 of the paper prescribes: packet
// buffers come from a pool and are recycled rather than allocated (the
// paper's on-the-fly receive-buffer replacement), per-call bookkeeping
// objects are reused, counters are lock-free atomics, and the locks are
// per-peer and per-concern (outgoing calls, server activities, pings) so
// concurrent caller threads and the receive goroutine never serialize on
// one global mutex.
package proto

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"fireflyrpc/internal/buffer"
	"fireflyrpc/internal/overload"
	"fireflyrpc/internal/transport"
	"fireflyrpc/internal/wire"
)

// Errors.
var (
	ErrTimeout    = errors.New("proto: call timed out after retransmission limit")
	ErrRejected   = errors.New("proto: call rejected by server (unknown interface or procedure)")
	ErrOverloaded = errors.New("proto: call shed by server admission control")
	ErrClosed     = errors.New("proto: connection closed")
	ErrTooLarge   = errors.New("proto: message exceeds fragment limit")
)

// ackInProgress in an ack's FragIndex means "call received, still
// executing" — it resets the caller's retry budget without completing.
const ackInProgress = 0xffff

// flagAckResult distinguishes an acknowledgement of a result fragment
// (caller → server) from one of a call fragment (server → caller).
const flagAckResult = 1 << 2

// maxFragments bounds a single call or result (1440 B × 256 = 360 KB).
const maxFragments = 256

// Config tunes the protocol engine.
type Config struct {
	// RetransInterval is the initial retransmission timeout for peers with
	// no round-trip estimate, and the ceiling for peers with one; it
	// doubles on each retry up to 8× the initial value. The Firefly used
	// ~600 ms.
	RetransInterval time.Duration
	// MaxRetries bounds a call's retransmissions per unacknowledged window
	// or final fragment, reset on progress, before ErrTimeout.
	MaxRetries int
	// Workers is the server-side concurrency: the number of calls that may
	// execute simultaneously (the Firefly kept a pool of server threads
	// waiting in the call table).
	Workers int
	// CallTimeout, when positive, bounds each call's total duration. It is
	// enforced by the retransmission engine, so it holds even while
	// retransmissions keep succeeding — a server that answers every retry
	// with "still executing" cannot stretch a call past its deadline. A
	// caller context with an earlier deadline tightens it further.
	CallTimeout time.Duration
	// PeerIdleTimeout, when positive, evicts a peer's channel (call-table
	// shard, duplicate state, retained result frames, RTT estimate) after
	// it has been quiet this long with nothing in flight. Zero disables
	// eviction.
	PeerIdleTimeout time.Duration
	// Admission picks the server dispatch queue's shedding policy and
	// bounds its depth; excess calls are shed with a wire-level overload
	// rejection (see internal/overload for the policies). A zero Capacity
	// means a FIFO queue of 1024 calls (defaultQueueCapacity) and leaves
	// AdmissionStats unreported. That queue sheds too once full, which
	// sustained overload reaches, since a call whose caller timed out stays
	// queued; Stats().CallsShed counts its sheds.
	Admission overload.Config
	// DisableHello makes this endpoint behave as a pre-session binary: it
	// never initiates hello negotiation and drops hello packets as bad
	// frames, speaking the implicit v0 legacy session with every peer.
	// Exists for old-binary interop tests; leave false in production.
	DisableHello bool
	// HelloTimeout is the wait per hello attempt before retrying (and,
	// after the attempts run out, falling back to the legacy session).
	// Zero means RetransInterval.
	HelloTimeout time.Duration
	// AdvertiseFeatures, when non-zero, narrows the feature bitset this
	// endpoint advertises in hellos (the default is every feature the
	// binary implements). Used to exercise feature-downgrade paths.
	AdvertiseFeatures uint64
}

// DefaultConfig mirrors sensible Firefly-like settings scaled to modern
// networks.
func DefaultConfig() Config {
	return Config{
		RetransInterval: 50 * time.Millisecond,
		MaxRetries:      10,
		Workers:         8,
		PeerIdleTimeout: 2 * time.Minute,
	}
}

// defaultQueueCapacity bounds the dispatch queue of a Conn whose
// Config.Admission leaves Capacity zero.
const defaultQueueCapacity = 1024

// Handler executes an incoming call and returns the result payload.
// A non-nil error turns into a reject packet. tc is the call's distributed
// trace context (zero when the caller sent none), for a dispatch layer that
// re-emits it on chained calls (core.Node threads it into the procedure's
// context.Context). args is only valid until the handler returns: the
// buffer behind it is recycled for the activity's next call, exactly as the
// Firefly reused call-table packet buffers. Handlers that need the
// arguments afterwards must copy them. The result belongs to the protocol
// once returned: a multi-fragment one streams to the caller after the
// handler returns, so it must not be reused, though it may alias args.
type Handler func(src transport.Addr, tc wire.TraceCtx, iface uint32, proc uint16, args []byte) ([]byte, error)

// Stats counts protocol events. It is the snapshot type returned by
// Conn.Stats; the live counters are lock-free atomics.
type Stats struct {
	CallsSent      int64
	CallsCompleted int64
	CallsServed    int64
	Retransmits    int64 // caller: argument windows and final call fragments resent on a timer
	DupCalls       int64
	DupFrags       int64
	ResultRetrans  int64 // server: retained results and result windows resent at the caller's request
	AcksSent       int64
	InProgressAcks int64
	Rejects        int64
	BadFrames      int64
	StaleDrops     int64
	Probes         int64
	Cancels        int64 // cancel notices received (caller abandoned a call)
	PeersEvicted   int64 // idle peer channels reclaimed
	CallsShed      int64 // server: calls shed by admission control
	Overloads      int64 // caller: overload rejections received

	// Session negotiation (see session.go).
	HellosSent         int64 // hello packets transmitted (incl. retries)
	SessionsNegotiated int64 // channels that concluded a hello agreement
	SessionsLegacy     int64 // channels that fell back to the v0 session
	HelloRejects       int64 // hellos/acks refused for version mismatch
}

// statCounters is the live, contention-free form of Stats: each event is a
// single atomic add, with no mutex on the fast path (§4.2's "fewer cycles
// on the fast path" applied to bookkeeping).
type statCounters struct {
	callsSent      atomic.Int64
	callsCompleted atomic.Int64
	callsServed    atomic.Int64
	retransmits    atomic.Int64
	dupCalls       atomic.Int64
	dupFrags       atomic.Int64
	resultRetrans  atomic.Int64
	acksSent       atomic.Int64
	inProgressAcks atomic.Int64
	rejects        atomic.Int64
	badFrames      atomic.Int64
	staleDrops     atomic.Int64
	probes         atomic.Int64
	cancels        atomic.Int64
	peersEvicted   atomic.Int64
	callsShed      atomic.Int64
	overloads      atomic.Int64

	hellosSent         atomic.Int64
	sessionsNegotiated atomic.Int64
	sessionsLegacy     atomic.Int64
	helloRejects       atomic.Int64
}

func (s *statCounters) snapshot() Stats {
	return Stats{
		CallsSent:      s.callsSent.Load(),
		CallsCompleted: s.callsCompleted.Load(),
		CallsServed:    s.callsServed.Load(),
		Retransmits:    s.retransmits.Load(),
		DupCalls:       s.dupCalls.Load(),
		DupFrags:       s.dupFrags.Load(),
		ResultRetrans:  s.resultRetrans.Load(),
		AcksSent:       s.acksSent.Load(),
		InProgressAcks: s.inProgressAcks.Load(),
		Rejects:        s.rejects.Load(),
		BadFrames:      s.badFrames.Load(),
		StaleDrops:     s.staleDrops.Load(),
		Probes:         s.probes.Load(),
		Cancels:        s.cancels.Load(),
		PeersEvicted:   s.peersEvicted.Load(),
		CallsShed:      s.callsShed.Load(),
		Overloads:      s.overloads.Load(),

		HellosSent:         s.hellosSent.Load(),
		SessionsNegotiated: s.sessionsNegotiated.Load(),
		SessionsLegacy:     s.sessionsLegacy.Load(),
		HelloRejects:       s.helloRejects.Load(),
	}
}

// Conn is one protocol endpoint; it can originate calls and serve them.
//
// Per-peer state (outgoing calls, server activities, RTT estimates) lives
// in channel objects behind a sharded peer map; only pings and the
// retransmission heap are Conn-global, each behind its own lock. No code
// path holds two of these locks at once except the documented
// retransMu → outCall.mu nesting in the retransmission engine.
type Conn struct {
	tr      transport.Transport
	cfg     Config
	handler Handler // immutable after NewConn

	closed atomic.Bool

	// peers is the sharded per-peer channel directory.
	peers peerMap

	pingsMu sync.Mutex
	pings   map[uint32]chan struct{}
	pingSeq uint32

	activityCtr atomic.Uint64

	// Session negotiation identity (session.go): the version range this
	// endpoint speaks and the feature set it advertises. Immutable after
	// NewConn; per-peer negotiation state lives on the channel. The
	// version fields exist as fields (rather than reading the wire
	// constants at use sites) so mismatch tests can impersonate a future
	// binary.
	helloVersion    uint16
	helloMinVersion uint16
	localFeatures   uint64
	helloNonce      atomic.Uint32

	// Retransmission engine (retrans.go): a min-heap of pending calls by
	// next-fire time, drained by the engine timer's function; wake is the
	// timer's wake time and nextSweep the next idle sweep's, each zero
	// when there is none. All guarded by retransMu.
	retransMu sync.Mutex
	rheap     []*outCall
	engine    *time.Timer
	wake      time.Time
	nextSweep time.Time

	// Server execution: a fixed pool of worker goroutines drains the
	// bounded admission queue, the real-stack analogue of the Firefly's
	// pool of server threads waiting in the call table. Both are built
	// only when the Conn has a handler. admitExplicit records that
	// Config.Admission set a capacity: only then are the queue's Stats
	// reported and each handler timed for the service-time estimate they
	// report and the Deadline policy sheds by. workQuit stops the
	// send queue's flusher on Close.
	admit         *overload.Queue[execReq]
	admitExplicit bool
	workQuit      chan struct{}

	// frames recycles outgoing packet buffers (§4.2's buffer management
	// that avoids allocation).
	frames buffer.FramePool

	// sq is the opportunistic batching send queue, non-nil only when the
	// transport offers a live batched datapath (see sendq.go). Every
	// outgoing frame goes through c.send, which routes here when engaged.
	sq *sendQueue

	// bs is the transport's SendBatch when it has one and sq is not
	// engaged: each fragment window then leaves in one SendBatch call, on
	// the goroutine that sends it (see sendWindow).
	bs transport.BatchSender

	stats statCounters

	// trace is the observability switch: per-call stage tracing into a
	// fixed record ring (sampled 1-in-N) plus per-peer and per-method
	// latency histograms. Disabled (the default), the call path pays one
	// atomic load; see trace.go.
	trace tracer

	// methods is the per-method latency histogram table, populated only
	// while tracing is enabled.
	methods methodTable

	// Distributed-trace span identifiers (tracectx.go): a per-Conn
	// splitmix64 stream. spanSeed is immutable after NewConn.
	spanSeed uint64
	spanCtr  atomic.Uint64

	// flight is the always-on anomaly recorder (flight.go): a fixed
	// all-atomic event ring plus its dump triggers, embedded so recording
	// never allocates.
	flight flightRecorder
}

// execReq hands one complete call to a server worker. args is the whole
// reassembled argument message, which the worker owns until it returns the
// buffer to the activity for the next call.
type execReq struct {
	act  *serverAct
	hdr  wire.RPCHeader
	args []byte
	// trace carries the server-side stage record for a FlagTraced call
	// through the dispatch queue to the worker; nil when not traced.
	trace *traceRec
	// budgetNs is the caller's remaining deadline budget at arrival
	// (from the call header's FlagBudget Hint); 0 when unknown. Only the
	// admission queue's Deadline policy consumes it.
	budgetNs int64
	// tc is the call's distributed trace context (zero when the caller
	// sent none), handed to the Handler for downstream re-emission.
	tc wire.TraceCtx
}

type callKey struct {
	activity uint64
	seq      uint32
}

// outCall is an outstanding outgoing call. outCalls are pooled and reused
// across calls; every completion path re-verifies key under mu so a stale
// reference from a previous incarnation cannot touch the current call.
//
// Retransmission state (out, frame, interval, nextAt, deadline, retries)
// is guarded by mu and driven by the Conn's retransmission engine; the heap
// bookkeeping fields (heapAt, heapIdx, inHeap) are guarded by
// Conn.retransMu.
type outCall struct {
	mu   sync.Mutex
	key  callKey
	dst  transport.Addr
	done chan struct{} // fresh per call; closed exactly once on finish

	// Retransmission engine state. A multi-fragment call's arguments are in
	// out until their final fragment leaves, retained in frame.
	out      fragMsg
	frame    *buffer.Frame // retained final call fragment
	interval time.Duration // current backoff interval
	nextAt   time.Time     // authoritative next retransmission time
	deadline time.Time     // absolute call deadline; zero = none
	sentAt   time.Time     // when the final fragment was first sent (RTT sample)
	retries  int
	fragged  bool // the arguments took more than one fragment

	// Heap bookkeeping (guarded by Conn.retransMu, not mu).
	heapAt  time.Time
	heapIdx int
	inHeap  bool

	// resBuf is the caller-provided result space (may be nil), which the
	// result's fragments are appended to in order; resNext is the next
	// fragment index expected and resCount the first fragment's FragCount.
	resBuf   []byte
	resNext  uint16
	resCount uint16
	result   []byte
	err      error
	finished bool

	// Observability state (guarded by mu): the call's interface/procedure
	// identity for per-method histograms, and the sampled stage record
	// (nil for unsampled calls and whenever tracing is disabled).
	iface uint32
	proc  uint16
	trace *traceRec
}

// outCallPool recycles outCall objects, so the per-call setup cost is one
// done-channel allocation.
var outCallPool = sync.Pool{New: func() any { return new(outCall) }}

// getOutCall readies a pooled outCall for one call.
func getOutCall(k callKey, dst transport.Addr, resBuf []byte) *outCall {
	oc := outCallPool.Get().(*outCall)
	oc.mu.Lock()
	oc.key = k
	oc.dst = dst
	oc.resBuf = resBuf
	oc.resNext = 0
	oc.resCount = 0
	oc.result = nil
	oc.err = nil
	oc.finished = false
	oc.frame = nil
	oc.retries = 0
	oc.interval = 0
	oc.nextAt = time.Time{}
	oc.deadline = time.Time{}
	oc.sentAt = time.Time{}
	oc.fragged = false
	oc.iface = 0
	oc.proc = 0
	oc.trace = nil
	oc.done = make(chan struct{})
	oc.mu.Unlock()
	return oc
}

// putOutCall returns a finished outCall to the pool.
func putOutCall(oc *outCall) {
	oc.mu.Lock()
	oc.dst = nil
	oc.resBuf = nil
	oc.result = nil
	oc.out = fragMsg{}
	oc.frame = nil
	oc.trace = nil
	oc.mu.Unlock()
	outCallPool.Put(oc)
}

// due is when the engine should next look at the call: its next
// retransmission, or its deadline if that comes first.
func (oc *outCall) due() time.Time {
	if !oc.deadline.IsZero() && oc.deadline.Before(oc.nextAt) {
		return oc.deadline
	}
	return oc.nextAt
}

// serverAct is the per-activity server state within a peer's channel:
// duplicate suppression, the result stream and the retained result.
// Mutable fields are guarded by the owning channel's actsMu; activity, src,
// and ch are immutable after creation.
type serverAct struct {
	activity  uint64
	src       transport.Addr
	ch        *channel
	lastSeq   uint32
	phase     int // receiving, executing, done
	abandoned bool
	// argBuf is the recycled argument buffer. While a call is being
	// received its fragments are appended to it in order (next is the index
	// expected, count the call's FragCount); the complete call hands it to
	// the worker, which returns it when done, so steady-state calls of any
	// size do not allocate for arguments. If an overlapping execution still
	// owns it, the new call allocates its own.
	argBuf []byte
	next   uint16
	count  uint16
	hdr    wire.RPCHeader
	// tc is the current call's trace context, parsed from fragment 0's
	// FlagTraceCtx prefix; zero for untraced calls and legacy peers.
	tc wire.TraceCtx
	// res is a multi-fragment result on its way to the caller, which acks
	// move on (see streamLocked); it has no timer, as the caller's
	// retransmissions ask for a window again. resArgs is the argument
	// buffer, which the result may alias, kept until the stream ends, and
	// resTrace the call's stage record, stamped when the final fragment
	// leaves.
	res      fragMsg
	resArgs  []byte
	resTrace *traceRec
	// lastResultFrame is the final packet of the last result, retained in
	// its pooled buffer for retransmission until the activity's next call
	// recycles it — the call-table retention scheme of §4.2.
	lastResultFrame *buffer.Frame
}

const (
	phaseReceiving = iota
	phaseExecuting
	phaseDone
)

// NewConn wraps a transport. handler may be nil for a pure caller, which
// rejects incoming calls and runs no workers.
func NewConn(tr transport.Transport, cfg Config, handler Handler) *Conn {
	if cfg.RetransInterval <= 0 {
		cfg.RetransInterval = DefaultConfig().RetransInterval
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = DefaultConfig().MaxRetries
	}
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultConfig().Workers
	}
	c := &Conn{
		tr:       tr,
		cfg:      cfg,
		pings:    make(map[uint32]chan struct{}),
		handler:  handler,
		workQuit: make(chan struct{}),

		helloVersion:    wire.SessionVersion,
		helloMinVersion: wire.SessionMinVersion,
		localFeatures:   defaultFeatures,
		spanSeed:        hashString(tr.LocalAddr().String()) ^ uint64(time.Now().UnixNano()),
	}
	if cfg.AdvertiseFeatures != 0 {
		c.localFeatures = cfg.AdvertiseFeatures
	}
	for i := range c.peers.shards {
		c.peers.shards[i].peers = make(map[string]*channel)
	}
	if handler != nil {
		admission := cfg.Admission
		c.admitExplicit = admission.Capacity > 0
		if !c.admitExplicit {
			admission = overload.Config{Policy: overload.FIFO, Capacity: defaultQueueCapacity}
		}
		c.admit = overload.NewQueue[execReq](admission, c.shedExec)
		for i := 0; i < cfg.Workers; i++ {
			go c.worker()
		}
	}
	c.startRetrans()
	if transport.SupportsBatch(tr) {
		c.sq = newSendQueue(c, tr.(transport.BatchSender))
	} else if bs, ok := tr.(transport.BatchSender); ok {
		c.bs = bs
	}
	tr.SetReceiver(c.onFrame)
	return c
}

// send funnels every outgoing frame: straight to the transport on the
// per-frame path, or through the batching send queue when the transport
// offers SendBatch. The frame remains owned by the caller either way.
func (c *Conn) send(dst transport.Addr, frame []byte) error {
	if c.sq != nil {
		return c.sq.enqueue(dst, frame)
	}
	return c.tr.Send(dst, frame)
}

// TransportStats exposes the underlying transport's counters (drops,
// errors, batch amortization); ok is false when the transport keeps none.
func (c *Conn) TransportStats() (transport.Stats, bool) {
	if sr, ok := c.tr.(transport.StatsReporter); ok {
		return sr.TransportStats()
	}
	return transport.Stats{}, false
}

// worker is one server thread: it drains the admission queue (which sheds
// what cannot be served) and executes each call, bounding handler
// concurrency to cfg.Workers. Under an explicit admission policy it feeds
// each handler's duration back into the service-time estimate.
func (c *Conn) worker() {
	for {
		req, ok := c.admit.Take()
		if !ok {
			return
		}
		if !c.admitExplicit {
			c.execute(req)
			continue
		}
		start := time.Now()
		c.execute(req)
		c.admit.ObserveService(time.Since(start))
	}
}

// shedExec answers one shed call with an overload rejection on the wire —
// retained like a result, so the caller's retransmissions of the shed call
// are answered from the call table instead of re-entering the queue — and
// releases the per-call accounting the dispatch path acquired.
func (c *Conn) shedExec(req execReq, _ overload.Reason) {
	act, hdr := req.act, req.hdr
	ch := act.ch
	defer ch.executing.Add(-1)
	c.stats.callsShed.Add(1)
	c.flight.record(FlightShed, hdr.Activity, hdr.Seq, 0)
	if req.trace != nil {
		// Close out the server-side stage record so a traced shed call still
		// joins: dispatch, done, and result-sent collapse to the shed point.
		req.trace.stamp(StageSrvDispatch)
		req.trace.stamp(StageSrvDone)
		req.trace.stamp(StageSrvResultSent)
	}
	rej := wire.RPCHeader{
		Type: wire.TypeReject, Activity: hdr.Activity, Seq: hdr.Seq,
		FragCount: 1, Interface: hdr.Interface, Proc: hdr.Proc,
		Hint: wire.RejectOverload,
	}
	f := c.newFrame(rej, wire.TraceCtx{}, nil)
	_ = c.send(act.src, f.Bytes())
	c.retainResult(act, hdr.Seq, f)
	if req.args != nil {
		ch.actsMu.Lock()
		if act.argBuf == nil && !ch.evicted {
			act.argBuf = req.args[:0]
		}
		ch.actsMu.Unlock()
	}
}

// AdmissionStats reports the admission queue's counters; ok is false for a
// pure caller and for the default queue (Config.Admission unset).
func (c *Conn) AdmissionStats() (s overload.Stats, ok bool) {
	if !c.admitExplicit {
		return s, false
	}
	return c.admit.Stats(), true
}

// NewActivity allocates a fresh activity identifier. Each calling goroutine
// (thread) should have its own, as on the Firefly.
func (c *Conn) NewActivity() uint64 {
	// Mix in some bits from the local address so two processes sharing a
	// server are unlikely to collide even if they restart.
	base := hashString(c.tr.LocalAddr().String()) & 0xffffffff
	return base<<32 | c.activityCtr.Add(1)
}

func hashString(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Stats returns a snapshot of the counters. Each counter is read
// atomically; the snapshot is consistent in the sense that every counted
// event is reflected by at most one read.
func (c *Conn) Stats() Stats { return c.stats.snapshot() }

// LocalAddr names this endpoint.
func (c *Conn) LocalAddr() transport.Addr { return c.tr.LocalAddr() }

// Close shuts the connection down; outstanding calls fail with ErrClosed,
// every peer channel's retained result frames are released, and the worker
// pool and retransmission engine stop.
func (c *Conn) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	close(c.workQuit)
	c.engine.Stop()
	if c.admit != nil {
		// Sheds everything still queued (decrementing the per-channel
		// executing counts) and unblocks the workers.
		c.admit.Close()
	}
	c.forEachChannel(func(ch *channel) {
		ch.callsMu.Lock()
		calls := make([]*outCall, 0, len(ch.calls))
		keys := make([]callKey, 0, len(ch.calls))
		for k, oc := range ch.calls {
			calls = append(calls, oc)
			keys = append(keys, k)
		}
		ch.calls = map[callKey]*outCall{}
		ch.callsMu.Unlock()
		for i, oc := range calls {
			oc.finish(keys[i], nil, ErrClosed)
		}
		c.evictChannel(ch)
	})
	err := c.tr.Close()
	if c.sq != nil {
		// The transport is closed, so a flush blocked in SendBatch has
		// unwound; wait for the flusher to release every queued buffer.
		c.sq.wait()
	}
	return err
}

// finish completes the call identified by k. The key check makes stale
// references (a goroutine that looked an outCall up just before it was
// recycled) no-ops instead of corrupting the next call.
func (oc *outCall) finish(k callKey, result []byte, err error) {
	oc.mu.Lock()
	oc.finishLocked(k, result, err)
	oc.mu.Unlock()
}

// finishLocked is finish with oc.mu already held (the retransmission
// engine's completion path).
func (oc *outCall) finishLocked(k callKey, result []byte, err error) {
	if oc.finished || oc.key != k {
		return
	}
	oc.finished = true
	oc.result = result
	oc.err = err
	close(oc.done)
}

// maxPayload is the per-fragment payload budget.
func (c *Conn) maxPayload() int { return c.tr.MaxFrame() - wire.RPCHeaderLen }

// fragCount is the number of fragments an n-byte message travels in when
// fragment 0 carries up to first bytes and every later one up to maxP. A
// sender slices fragment i straight out of the message: every fragment but
// the last is full.
func fragCount(n, first, maxP int) int {
	if n <= first {
		return 1
	}
	return 1 + (n-first+maxP-1)/maxP
}

// newFrame assembles header+payload into a pooled frame (see putFrame).
// The caller owns the frame: either Release it after its last transmission
// or retain it (call/result retransmission) and Release on recycle.
func (c *Conn) newFrame(h wire.RPCHeader, tc wire.TraceCtx, payload []byte) *buffer.Frame {
	f := c.frames.Get()
	f.SetLen(putFrame(f.Cap(), h, tc, payload))
	return f
}

// putFrame assembles header+payload at the start of b and returns the
// frame's length; it panics if b is too short. Fragment 0 of a
// FlagTraceCtx message also carries tc ahead of the payload — the wire
// layout is header, 17-byte context, payload; StartCall's fragmentation
// budget reserves the prefix bytes, so the frame never exceeds the
// transport's MaxFrame.
func putFrame(b []byte, h wire.RPCHeader, tc wire.TraceCtx, payload []byte) int {
	pre := 0
	if h.Flags&wire.FlagTraceCtx != 0 && h.FragIndex == 0 {
		pre = wire.TraceCtxLen
	}
	h.Version = wire.RPCVersion
	h.Length = uint32(pre + len(payload))
	b = b[:wire.RPCHeaderLen+pre+len(payload)]
	h.MarshalTo(b)
	if pre != 0 {
		tc.MarshalTo(b[wire.RPCHeaderLen:])
	}
	copy(b[wire.RPCHeaderLen+pre:], payload)
	return len(b)
}

// sendFrame builds, transmits, and immediately recycles a frame — for
// packets that are never retransmitted from this buffer (acks, probes,
// rejects sent off the retention path).
func (c *Conn) sendFrame(dst transport.Addr, h wire.RPCHeader, payload []byte) error {
	f := c.newFrame(h, wire.TraceCtx{}, payload)
	err := c.send(dst, f.Bytes())
	f.Release()
	return err
}

// buildFrame assembles header+payload into a fresh heap frame. Kept for
// tests and tools that need a standalone []byte; the protocol fast path
// uses pooled frames via newFrame/sendFrame.
func buildFrame(h wire.RPCHeader, payload []byte) []byte {
	h.Version = wire.RPCVersion
	h.Length = uint32(len(payload))
	frame := make([]byte, wire.RPCHeaderLen+len(payload))
	h.MarshalTo(frame)
	copy(frame[wire.RPCHeaderLen:], payload)
	return frame
}
