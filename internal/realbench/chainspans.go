package realbench

import (
	"context"
	"fmt"
	"time"

	"fireflyrpc/internal/core"
	"fireflyrpc/internal/marshal"
	"fireflyrpc/internal/proto"
	"fireflyrpc/internal/registry"
	"fireflyrpc/internal/testsvc"
	"fireflyrpc/internal/transport"
	"fireflyrpc/internal/wire"
)

// The chained-call scenario: the acceptance witness for wire-propagated
// distributed tracing. A client calls server A's Relay procedure; A's
// handler — having found server B through the binding registry, as the
// paper's §3.1.1 presupposes binding works — threads the handler context
// into a downstream Null call on B. With tracing on at every node, the
// three rings assemble into one trace: the client→A span is the root and
// the A→B span is its child, linked by the SpanID that A's handler context
// carried. The same spans feed the merged real+sim Perfetto document.

// Identity of the relay interface server A exports.
const (
	ChainName      = "Chain"
	ChainVersion   = uint32(1)
	chainProcRelay = uint16(1)
)

// ChainReport is the outcome of a ChainSpans run.
type ChainReport struct {
	Calls       int                    `json:"calls"`
	Spans       []proto.Span           `json:"spans"`
	Roots       int                    `json:"roots"`       // spans with no parent
	Children    int                    `json:"children"`    // spans causally linked to a known parent
	Orphans     int                    `json:"orphans"`     // parented spans whose parent is missing
	Accounting  proto.AccountingReport `json:"accounting"`  // joined over all three rings
	Unaccounted float64                `json:"unaccounted"` // signed fraction of e2e the stages miss
}

// Linked reports whether every chained call produced a causally complete
// trace: as many children as roots, none orphaned.
func (r *ChainReport) Linked() bool {
	return r.Roots > 0 && r.Children == r.Roots && r.Orphans == 0
}

// waitFeatTrace polls a Conn's peer table until some session has FeatTrace
// negotiated (the priming call already forced the hello exchange).
func waitFeatTrace(c *proto.Conn) error {
	deadline := time.Now().Add(2 * time.Second)
	for {
		for _, p := range c.Peers() {
			if p.SessionFeatures&uint64(wire.FeatTrace) != 0 {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chainspans: FeatTrace never negotiated on %s", c.LocalAddr())
		}
		time.Sleep(time.Millisecond)
	}
}

// ChainSpans runs `calls` two-hop chained calls (client → server A →
// server B) over one exchange, with the directory service brokering A's
// binding to B, and returns the assembled spans plus the joined stage
// accounting. Every call is sampled (1-in-1) so each produces a full
// parent/child span pair.
func ChainSpans(calls int) (*ChainReport, error) {
	if calls <= 0 {
		calls = 64
	}
	ex := transport.NewExchange()
	cfg := proto.DefaultConfig()
	dirNode := core.NewNode(ex.Port("directory"), cfg)
	client := core.NewNode(ex.Port("client"), cfg)
	srvA := core.NewNode(ex.Port("server-a"), cfg)
	srvB := core.NewNode(ex.Port("server-b"), cfg)
	defer func() {
		client.Close()
		srvA.Close()
		srvB.Close()
		dirNode.Close()
	}()

	dir := registry.NewServer()
	dirNode.Export(dir.Export())
	srvB.Export(testsvc.ExportTest(impl{}))

	// B advertises itself; A resolves B through the directory and binds.
	svcName := fmt.Sprintf("%s/v%d", testsvc.TestName, testsvc.TestVersion)
	regB := registry.NewClient(srvB, transport.AddrOf("directory"))
	if err := regB.Register(svcName, srvB.Addr().String(), time.Minute); err != nil {
		return nil, fmt.Errorf("register: %w", err)
	}
	regA := registry.NewClient(srvA, transport.AddrOf("directory"))
	addrB, err := regA.Lookup(svcName)
	if err != nil {
		return nil, fmt.Errorf("lookup: %w", err)
	}

	// Relay handler: every worker shares one downstream client. Threading
	// ctx into CallCtx is what parents the downstream span onto this
	// handler's span.
	down := srvA.Bind(transport.AddrOf(addrB), testsvc.TestName, testsvc.TestVersion).NewClient()
	srvA.Export(core.NewInterface(ChainName, ChainVersion).
		ProcCtx(chainProcRelay, func(ctx context.Context, _ transport.Addr, _ *marshal.Dec) ([]byte, error) {
			return nil, down.CallCtx(ctx, testsvc.TestProcNull, 0, nil, nil)
		}))

	cl := client.Bind(transport.AddrOf("server-a"), ChainName, ChainVersion).NewClient()

	// Prime before arming tracing: the first chained call triggers the
	// client→A and A→B hello exchanges, and the trace-context prefix only
	// rides frames once FeatTrace is negotiated. Waiting here keeps the
	// measured rings free of half-negotiated (prefix-less) spans and of the
	// registry traffic above.
	for i := 0; i < 2; i++ {
		if err := cl.Call(chainProcRelay, 0, nil, nil); err != nil {
			return nil, fmt.Errorf("priming call %d: %w", i, err)
		}
	}
	for _, c := range []*proto.Conn{client.Conn(), srvA.Conn()} {
		if err := waitFeatTrace(c); err != nil {
			return nil, err
		}
	}
	for _, n := range []*core.Node{client, srvA, srvB} {
		n.Conn().SetTracing(1, 4096)
	}

	for i := 0; i < calls; i++ {
		if err := cl.Call(chainProcRelay, 0, nil, nil); err != nil {
			return nil, fmt.Errorf("chained call %d: %w", i, err)
		}
	}
	// The caller has its result, but the server halves' final stamps
	// (result-sent, done) land from worker goroutines; let them settle.
	time.Sleep(20 * time.Millisecond)

	rings := [][]proto.TraceRecord{
		client.Conn().TraceRecords(),
		srvA.Conn().TraceRecords(),
		srvB.Conn().TraceRecords(),
	}
	rep := &ChainReport{Calls: calls, Spans: proto.AssembleSpans(rings...)}
	byID := make(map[uint64]*proto.Span, len(rep.Spans))
	for i := range rep.Spans {
		byID[rep.Spans[i].SpanID] = &rep.Spans[i]
	}
	for i := range rep.Spans {
		s := &rep.Spans[i]
		if s.Parent == 0 {
			rep.Roots++
			continue
		}
		if p := byID[s.Parent]; p != nil && p.TraceID == s.TraceID {
			rep.Children++
		} else {
			rep.Orphans++
		}
	}
	rep.Accounting = proto.Account(rings...)
	rep.Unaccounted = rep.Accounting.Unaccounted()
	return rep, nil
}
