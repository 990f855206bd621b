package runbook

import (
	"math"
	"time"

	"fireflyrpc/internal/clock"
	"fireflyrpc/internal/ether"
	"fireflyrpc/internal/overload"
	"fireflyrpc/internal/sim"
	"fireflyrpc/internal/wire"
)

// node is one simulated machine. Every node can originate calls (client
// role) and nodes with a server or mixed role also run the server model: an
// overload.Queue — the admission queue every real server drains — in front
// of a fixed-size worker pool with a configured service time. The queue
// reads the kernel's virtual clock and the pool drains it with TryTake, so a
// run stays a pure function of (runbook, seed).
type node struct {
	ex    *exec
	spec  *NodeSpec
	idx   int
	mac   wire.MAC
	ports map[int]*ether.Port // target node idx → transmit port

	admit   *overload.Queue[*srvCall]
	workers int
	busy    int

	// states dedups retransmitted requests and retains each finished call's
	// outcome so a duplicated or re-sent request elicits a re-sent reply.
	states map[uint64]*srvCall

	// Counters below reset at the warmup boundary.
	served       int64
	shedCapacity int64
	shedDeadline int64
	corruptDrops int64
	maxQueue     int
}

// srvCall is the server-side state of one distinct call id.
type srvCall struct {
	id       uint64
	from     *node
	wl       uint32
	resBytes int
	status   byte

	arrive, svcStart, svcEnd sim.Time // stage stamps for the accounting identity
}

const (
	stQueued = iota + 1
	stServing
	stDone
	stShed
)

func newNode(ex *exec, idx int, spec *NodeSpec) *node {
	n := &node{
		ex:      ex,
		spec:    spec,
		idx:     idx,
		mac:     wire.MACForHost(uint32(idx + 1)),
		ports:   make(map[int]*ether.Port),
		workers: spec.workers(),
		states:  make(map[uint64]*srvCall),
	}
	cfg := overload.Config{Capacity: spec.Admission.Capacity}
	cfg.Policy, _ = spec.Admission.policy()
	if cfg.Capacity == 0 {
		cfg.Capacity = math.MaxInt // unbounded FIFO: Validate rejects a policy without a capacity
	}
	n.admit = overload.NewQueue(cfg, kernelClock{ex.k}, n.shed)
	return n
}

// kernelClock is the kernel's virtual clock behind the clock seam: readings
// are virtual nanoseconds since the Unix epoch and timers are kernel
// events, so like the kernel it serves one goroutine at a time.
type kernelClock struct{ k *sim.Kernel }

func (c kernelClock) Now() time.Time { return time.Unix(0, int64(c.k.Now())) }

func (c kernelClock) AfterFunc(d time.Duration, f func()) clock.Timer {
	t := &kernelTimer{k: c.k, f: f}
	t.Reset(d)
	return t
}

type kernelTimer struct {
	k  *sim.Kernel
	f  func()
	ev *sim.Timer
}

func (t *kernelTimer) Stop() bool { return t.ev.Cancel() }

func (t *kernelTimer) Reset(d time.Duration) bool {
	was := t.ev.Cancel()
	t.ev = t.k.After(d, t.f)
	return was
}

// onRequest handles an arriving request frame: dedup, admission, dispatch.
func (n *node) onRequest(from *node, f rpcFrame) {
	if st, ok := n.states[f.callID]; ok {
		// Retransmission of a known call: replay the outcome if decided,
		// otherwise the original is still queued or in service — stay quiet
		// and let it finish (the eventual reply answers the retransmit too).
		switch st.status {
		case stDone:
			n.sendReply(st, kindResp)
		case stShed:
			n.sendReply(st, kindReject)
		}
		return
	}
	st := &srvCall{
		id:       f.callID,
		from:     from,
		wl:       f.workload,
		resBytes: n.ex.resultBytes(f.workload),
		arrive:   n.ex.k.Now(),
		status:   stQueued,
	}
	var budget int64
	if f.budgetNs > 0 {
		// The budget was stamped at send time: the request's own wire
		// transmission has already consumed part of it, and the reply needs
		// time to travel back, so discount both. The reply's trip is
		// estimated as 3× its transmission time: under saturation the
		// queue's head is always exactly marginal, so without headroom for
		// medium queueing every served reply lands just past its deadline.
		fab := n.ex.fab
		budget = f.budgetNs - int64(fab.txTime(wireFrameLen(n.ex.argBytes(f.workload)))) -
			3*int64(fab.txTime(wireFrameLen(st.resBytes)))
		budget = max(budget, 1) // already dead, but still a budget: 0 means none
	}
	n.states[f.callID] = st
	if n.admit.Offer(st, budget) {
		n.maxQueue = max(n.maxQueue, n.admit.Stats().Depth)
		n.kick()
	}
}

// kick dispatches queued calls onto idle workers.
func (n *node) kick() {
	for n.busy < n.workers {
		st, ok := n.admit.TryTake()
		if !ok {
			return
		}
		n.busy++
		st.status = stServing
		st.svcStart = n.ex.k.Now()
		n.ex.k.After(sim.Duration(n.spec.service()), func() { n.complete(st) })
	}
}

// complete finishes a served call: stamp, learn, reply, take the next one.
func (n *node) complete(st *srvCall) {
	n.busy--
	st.svcEnd = n.ex.k.Now()
	st.status = stDone
	n.admit.ObserveService(st.svcEnd.Sub(st.svcStart))
	if n.ex.counting() {
		n.served++
	}
	n.sendReply(st, kindResp)
	n.kick()
}

// shed is the queue's shed callback: it rejects a call, retaining the
// decision for retransmit replay.
func (n *node) shed(st *srvCall, why overload.Reason) {
	st.status = stShed
	if n.ex.counting() {
		if why == overload.ReasonDeadline {
			n.shedDeadline++
		} else {
			n.shedCapacity++
		}
	}
	n.sendReply(st, kindReject)
}

// sendReply transmits a response or reject frame back to the caller.
// Responses carry the workload's result payload; rejects are header-only.
func (n *node) sendReply(st *srvCall, kind byte) {
	padding := 0
	if kind == kindResp {
		padding = st.resBytes
	}
	n.sendTo(st.from, marshalFrame(rpcFrame{kind: kind, callID: st.id, workload: st.wl}, padding))
}

// sendTo frames the payload in an Ethernet header and puts it on the wire.
func (n *node) sendTo(dst *node, payload []byte) {
	buf := make([]byte, wire.EthernetHeaderLen+len(payload))
	h := wire.EthernetHeader{Dst: dst.mac, Src: n.mac, EtherType: wire.EtherTypeRawRPC}
	h.MarshalTo(buf)
	copy(buf[wire.EthernetHeaderLen:], payload)
	n.ports[dst.idx].Transmit(buf, n.ex.fab.txTime(len(buf)), nil)
}

// resetMetrics zeroes the warmup-scoped counters at the warmup boundary.
func (n *node) resetMetrics() {
	n.served = 0
	n.shedCapacity = 0
	n.shedDeadline = 0
	n.corruptDrops = 0
	n.maxQueue = n.admit.Stats().Depth
}
