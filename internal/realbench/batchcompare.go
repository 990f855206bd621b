package realbench

import (
	"time"

	"fireflyrpc/internal/core"
	"fireflyrpc/internal/testsvc"
)

// The batch comparison cell: the acceptance witness for the protocol's send
// queue. It runs the same async Null fan-out workload twice in one process
// over the one UDP socket type — once with the send queue off (ListenUDP),
// once with it on (ListenUDPBatch) — and reports the self-relative speedup
// plus syscalls/call derived from the transport's own batch counters.
// Running both sides back to back on the same machine removes
// cross-machine noise from the ratio.

// BatchSide is one half of a BatchCompareResult.
type BatchSide struct {
	Batch       bool    `json:"batch"`
	Calls       int     `json:"calls"`
	NsPerOp     float64 `json:"ns_per_op"`
	CallsPerSec float64 `json:"calls_per_sec"`

	// Caller-side transport counters over the measured window. With the
	// send queue off SendBatches == SendFrames (one syscall per frame);
	// with it on the gap between them is the amortization.
	SendFrames      int64   `json:"send_frames"`
	SendBatches     int64   `json:"send_batches"`
	RecvFrames      int64   `json:"recv_frames"`
	RecvBatches     int64   `json:"recv_batches"`
	MaxSendBatch    int64   `json:"max_send_batch"`
	GSOSends        int64   `json:"gso_sends"`
	SyscallsPerCall float64 `json:"syscalls_per_call"` // (send+recv ops) / calls
}

// BatchCompareResult is the full comparison.
type BatchCompareResult struct {
	Outstanding int       `json:"outstanding"`
	PerFrame    BatchSide `json:"per_frame"`
	Batched     BatchSide `json:"batched"`
	Speedup     float64   `json:"speedup"` // per-frame ns/op ÷ batched ns/op
}

// batchCompareSide runs `calls` async Null calls at the given fan-out width
// with the send queue off or on and captures timing plus the caller transport's
// counter deltas across the measured window.
func batchCompareSide(to trOpts, calls, outstanding int) (BatchSide, error) {
	side := BatchSide{Batch: to.kind == "udpbatch", Calls: calls}
	p, done, err := pair(to, 8)
	if err != nil {
		return side, err
	}
	defer done()
	cl := p.binding.NewClient()
	pend := make([]*core.Pending, 0, outstanding)

	// Warm pools, the send queue, and the peer map before measuring.
	if err := fanout(cl, testsvc.TestProcNull, 4*outstanding, outstanding, nil, pend); err != nil {
		return side, err
	}

	before, _ := p.caller.Conn().TransportStats()
	start := time.Now()
	if err := fanout(cl, testsvc.TestProcNull, calls, outstanding, nil, pend); err != nil {
		return side, err
	}
	elapsed := time.Since(start)
	after, ok := p.caller.Conn().TransportStats()

	side.NsPerOp = float64(elapsed.Nanoseconds()) / float64(calls)
	if side.NsPerOp > 0 {
		side.CallsPerSec = 1e9 / side.NsPerOp
	}
	if ok {
		side.SendFrames = after.SendFrames - before.SendFrames
		side.SendBatches = after.SendBatches - before.SendBatches
		side.RecvFrames = after.RecvFrames - before.RecvFrames
		side.RecvBatches = after.RecvBatches - before.RecvBatches
		side.MaxSendBatch = after.MaxSendBatch
		side.GSOSends = after.GSOSends - before.GSOSends
		side.SyscallsPerCall = float64(side.SendBatches+side.RecvBatches) / float64(calls)
	}
	return side, nil
}

// BatchCompare runs the UDP async Null fan-out with the send queue off
// (PerFrame) and on (Batched), back to back over the same socket type, and
// returns the comparison. An error means UDP loopback is
// unavailable (sandbox) — callers should skip, not fail.
func BatchCompare(calls, outstanding int) (*BatchCompareResult, error) {
	if calls <= 0 {
		calls = 20000
	}
	if outstanding <= 0 {
		outstanding = 64
	}
	perFrame, err := batchCompareSide(trOpts{kind: "udp"}, calls, outstanding)
	if err != nil {
		return nil, err
	}
	batched, err := batchCompareSide(trOpts{kind: "udpbatch"}, calls, outstanding)
	if err != nil {
		return nil, err
	}
	res := &BatchCompareResult{Outstanding: outstanding, PerFrame: perFrame, Batched: batched}
	if batched.NsPerOp > 0 {
		res.Speedup = perFrame.NsPerOp / batched.NsPerOp
	}
	return res, nil
}
