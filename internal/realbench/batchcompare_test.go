package realbench

import "testing"

// The acceptance gate for the send queue: UDP async fan-out (64
// outstanding) with the queue on must reach at least 2× the calls/s of the
// same socket type with it off, self-relative in one process on one
// machine. The comparison also checks
// the mechanism, not just the outcome: the batched side must spend
// strictly fewer send syscalls than frames. Under the race detector, whose
// instrumentation slows the protocol's own code until the syscalls saved no
// longer set the ratio of times (1.05–1.2× on a 2-vCPU VM), the gate is the
// mechanism alone: the batched side must make at most a quarter of the
// per-frame side's syscalls per call.
func TestBatchCompareSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Best of three: the floor gates the datapath, not one scheduler hiccup
	// on a shared runner. A genuinely broken batch path fails all attempts.
	res, err := BatchCompare(12000, 64)
	if err != nil {
		t.Skip("no UDP loopback:", err)
	}
	for try := 0; try < 2 && res.Speedup < 2.0 && !raceEnabled; try++ {
		next, err := BatchCompare(12000, 64)
		if err == nil && next.Speedup > res.Speedup {
			res = next
		}
	}
	t.Logf("per-frame: %.0f ns/op (%.0f calls/s, %.2f syscalls/call)",
		res.PerFrame.NsPerOp, res.PerFrame.CallsPerSec, res.PerFrame.SyscallsPerCall)
	t.Logf("batched:   %.0f ns/op (%.0f calls/s, %.2f syscalls/call, max send batch %d, gso %d)",
		res.Batched.NsPerOp, res.Batched.CallsPerSec, res.Batched.SyscallsPerCall,
		res.Batched.MaxSendBatch, res.Batched.GSOSends)
	t.Logf("speedup: %.2fx", res.Speedup)

	if res.Batched.SendFrames == 0 {
		t.Fatal("batched side reported no send frames — counters broken")
	}
	if res.Batched.SendBatches >= res.Batched.SendFrames {
		t.Errorf("batched side not amortizing: %d send ops for %d frames",
			res.Batched.SendBatches, res.Batched.SendFrames)
	}
	if raceEnabled {
		if 4*res.Batched.SyscallsPerCall > res.PerFrame.SyscallsPerCall {
			t.Errorf("batched side made %.2f syscalls/call, more than a quarter of the per-frame side's %.2f",
				res.Batched.SyscallsPerCall, res.PerFrame.SyscallsPerCall)
		}
		return
	}
	if res.Speedup < 2.0 {
		t.Errorf("batched async fan-out speedup %.2fx < 2.0x acceptance floor "+
			"(per-frame %.0f calls/s, batched %.0f calls/s)",
			res.Speedup, res.PerFrame.CallsPerSec, res.Batched.CallsPerSec)
	}
}
