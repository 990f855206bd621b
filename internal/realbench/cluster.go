// The replica-set hedging sweep: the tail-at-scale counterpart of the
// Table I cells. Where TailSweep prices frame loss against one server's
// retransmission engine, ClusterSweep prices it against three — the same
// Null call driven through internal/cluster's balancer, once plain and
// once with hedged requests, over a deliberately hostile floor: 10%
// symmetric frame loss on the caller's uplink plus a deterministic 2%
// slice of server-side straggler requests. The comparison isolates what
// hedging alone buys, because the two cells share everything else.
//
// Why this shape: the adaptive retransmission engine already recovers
// lost frames in well under a millisecond, and P2C already routes around
// a replica that is *persistently* slow. What neither can fix is a call
// that has been dispatched into a slow execution — the server answers the
// retransmission with an in-progress ack and the client just waits. Only
// a backup request to a different replica rescues that call, which is
// exactly the hedged cell's job: its p99 must sit at the hedge delay, not
// at the straggler's service time.
package realbench

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fireflyrpc/internal/cluster"
	"fireflyrpc/internal/core"
	"fireflyrpc/internal/faultnet"
	"fireflyrpc/internal/proto"
	"fireflyrpc/internal/stats"
	"fireflyrpc/internal/testsvc"
	"fireflyrpc/internal/transport"
)

// The sweep's fixed floor: a three-replica set behind 10% symmetric loss
// on the caller uplink, where every 50th request per replica (2%) stalls
// for 20ms in service, driven by four callers with a fixed 2ms hedge delay.
const (
	clusterReplicas       = 3
	clusterLoss           = 0.10
	clusterStragglerEvery = 50
	clusterStragglerDelay = 20 * time.Millisecond
	clusterHedgeAfter     = 2 * time.Millisecond
	clusterThreads        = 4
)

// ClusterOptions configures the hedged-vs-unhedged replica-set sweep.
type ClusterOptions struct {
	CallsPerThread int    // measured calls per caller; default 1000
	Seed           uint64 // fault schedule + balancer seed; default 1
}

// ClusterCell is one side of the sweep.
type ClusterCell struct {
	Hedged        bool    // hedged requests enabled
	Replicas      int     // replica-set size
	Threads       int     // concurrent callers
	N             int     // calls measured
	NsPerOp       float64 // mean latency
	P99Us         float64 // tail latency
	CallsPerSec   float64
	IssuedPerCall float64 // wire calls per logical call (>1 = hedging overhead)
}

// stragglerImpl is the cluster-benchmark server: every 50th Null request
// stalls for the straggler delay — a deterministic stand-in for the GC
// pauses and queueing hiccups that give real services their p99. The 2%
// rate sits below the balancer's p90 pick quantile on purpose:
// P2C cannot see it, so the straggler slice is exactly the traffic only a
// hedge can rescue.
type stragglerImpl struct {
	impl
	n atomic.Int64
}

func (s *stragglerImpl) Null() error {
	if s.n.Add(1)%clusterStragglerEvery == 0 {
		time.Sleep(clusterStragglerDelay)
	}
	return nil
}

// ClusterSweep runs the unhedged and then the hedged cell.
func ClusterSweep(opts ClusterOptions) ([]ClusterCell, error) {
	if opts.CallsPerThread == 0 {
		opts.CallsPerThread = 1000
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	var out []ClusterCell
	for _, hedged := range []bool{false, true} {
		res, err := clusterCell(hedged, opts)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}

func clusterCell(hedged bool, opts ClusterOptions) (ClusterCell, error) {
	ex := transport.NewExchange()
	// A tight retransmission clamp matters here: the 20ms straggler RTTs
	// feed the Jacobson estimator and would otherwise inflate the RTO past
	// the hedge delay, making every lost frame look hedge-worthy. With a
	// 1ms ceiling, loss recovery completes before the hedge timer fires and
	// only genuinely slow calls (stragglers, double losses) pay for a
	// backup request.
	cfg := proto.Config{
		RetransInterval: time.Millisecond,
		MaxRetries:      100,
		Workers:         2 * clusterThreads,
	}
	prof := faultnet.Loss(clusterLoss)
	var addrs []string
	var nodes []*core.Node
	for i := 0; i < clusterReplicas; i++ {
		name := fmt.Sprintf("replica-%d", i)
		node := core.NewNode(ex.Port(name), cfg)
		node.Export(testsvc.ExportTest(&stragglerImpl{}))
		nodes = append(nodes, node)
		addrs = append(addrs, name)
	}
	caller := core.NewNode(faultnet.Wrap(ex.Port("caller"), prof, opts.Seed), cfg)
	defer func() {
		caller.Close()
		for _, n := range nodes {
			n.Close()
		}
	}()
	cc, err := cluster.New(context.Background(), cluster.Config{
		Node:      caller,
		Resolver:  cluster.Static(addrs),
		ParseAddr: func(s string) (transport.Addr, error) { return transport.AddrOf(s), nil },
		Iface:     testsvc.TestName,
		Version:   testsvc.TestVersion,
		Hedge:     cluster.HedgeConfig{Enabled: hedged, After: clusterHedgeAfter},
		Seed:      opts.Seed,
	})
	if err != nil {
		return ClusterCell{}, err
	}

	var lat stats.Sample
	run := func(perThread int, record bool) error {
		var firstErr error
		var errMu sync.Mutex
		samples := make([]stats.Sample, clusterThreads)
		var wg sync.WaitGroup
		for th := 0; th < clusterThreads; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				for i := 0; i < perThread; i++ {
					start := time.Now()
					err := cc.Call(context.Background(), testsvc.TestProcNull, 0, nil, nil)
					if err != nil {
						errMu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						errMu.Unlock()
						return
					}
					if record {
						samples[th].Add(time.Since(start))
					}
				}
			}(th)
		}
		wg.Wait()
		if record {
			lat = stats.Sample{}
			for th := range samples {
				lat.Merge(&samples[th])
			}
		}
		return firstErr
	}
	// Warm the sessions, RTT estimators, and balancer histograms off the
	// record, then snapshot the hedge accounting around the measured window.
	if err := run(64, false); err != nil {
		return ClusterCell{}, fmt.Errorf("cluster warmup (hedged=%v): %v", hedged, err)
	}
	before := cc.Stats()
	start := time.Now()
	if err := run(opts.CallsPerThread, true); err != nil {
		return ClusterCell{}, fmt.Errorf("cluster cell (hedged=%v): %v", hedged, err)
	}
	elapsed := time.Since(start)
	after := cc.Stats()

	calls := after.Calls - before.Calls
	issued := after.Issued - before.Issued
	n := lat.N()
	if n == 0 || calls == 0 {
		return ClusterCell{}, fmt.Errorf("cluster cell (hedged=%v): no calls measured", hedged)
	}
	res := ClusterCell{
		Hedged:        hedged,
		Replicas:      clusterReplicas,
		Threads:       clusterThreads,
		N:             n,
		NsPerOp:       lat.Mean() * 1e3, // Sample reports µs
		P99Us:         lat.Percentile(99),
		IssuedPerCall: float64(issued) / float64(calls),
	}
	if elapsed > 0 {
		res.CallsPerSec = float64(n) / elapsed.Seconds()
	}
	return res, nil
}
