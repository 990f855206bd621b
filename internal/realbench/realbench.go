// Package realbench measures the real (non-simulated) RPC stack: the
// modern-hardware analogue of the paper's Table I, run over the in-process
// exchange and loopback UDP/TCP instead of the Firefly's Ethernet.
//
// The Table I matrix itself is BenchmarkStack (stack_test.go): Null,
// MaxArg (1440-byte VAR IN argument) and MaxResult (1440-byte VAR OUT
// result) from 1–8 caller threads, one Client (activity) per thread as on
// the Firefly, plus async fan-out rows, measured with the standard
// `go test -bench` machinery. The exported functions here are the
// self-relative comparisons and sweeps built on the same node pairs: the
// batched-datapath speedup, the stage breakdown, the tracing overhead, the
// chained-call spans, and the loss, overload and hedging sweeps.
package realbench

import (
	"context"

	"fireflyrpc/internal/core"
	"fireflyrpc/internal/marshal"
	"fireflyrpc/internal/proto"
	"fireflyrpc/internal/testsvc"
	"fireflyrpc/internal/transport"
)

// impl is the benchmark server: procedures do minimal work so the stack,
// not the service, is measured.
type impl struct{}

func (impl) Null() error { return nil }
func (impl) MaxResult(buffer []byte) error {
	for i := range buffer {
		buffer[i] = byte(i)
	}
	return nil
}
func (impl) MaxArg(buffer []byte) error             { return nil }
func (impl) Add4(a, b, c, d int32) (int32, error)   { return a + b + c + d, nil }
func (impl) Reverse(data []byte, out *[]byte) error { *out = data; return nil }
func (impl) Increment(counter *uint32) error        { *counter++; return nil }
func (impl) Greet(n *marshal.Text) (*marshal.Text, error) {
	return marshal.NewText("hi " + n.String()), nil
}

// benchPair is one caller/server node pair plus the caller's binding to
// the server's test service. The nodes are exposed so the breakdown runner
// can enable stage tracing on both underlying Conns.
type benchPair struct {
	binding *core.Binding
	caller  *core.Node
	server  *core.Node
}

// trOpts selects the caller/server transport flavor for one cell.
type trOpts struct {
	kind   string // "" = in-process exchange; "udp", "udpbatch" (ListenUDPBatch: the send queue on) or "tcp" over loopback
	traced bool   // enable stage tracing on both Conns (production posture)
}

// The tracing posture traced cells run under: the production always-on
// configuration (1-in-N sampling over a modest ring), not trace-everything.
// The zero-cost-when-off invariant is about sampleN==0; these cells measure
// what turning tracing ON costs, which is what the ≤5% CI gate bounds.
const (
	traceSampleN  = 64
	traceRingSize = 4096
)

// pair builds a caller/server node pair over the requested transport. It
// returns an error (rather than failing) when loopback sockets are
// unavailable, so sandboxed environments just skip those cases.
func pair(to trOpts, workers int) (*benchPair, func(), error) {
	cfg := proto.DefaultConfig()
	if workers > cfg.Workers {
		cfg.Workers = workers
	}
	listen := func() (transport.Transport, error) {
		switch to.kind {
		case "tcp":
			return transport.ListenTCP("127.0.0.1:0")
		case "udpbatch":
			return transport.ListenUDPBatch("127.0.0.1:0", transport.UDPOptions{})
		default:
			return transport.ListenUDP("127.0.0.1:0")
		}
	}
	var callerTr, serverTr transport.Transport
	if to.kind != "" {
		var err error
		serverTr, err = listen()
		if err != nil {
			return nil, nil, err
		}
		callerTr, err = listen()
		if err != nil {
			serverTr.Close()
			return nil, nil, err
		}
	} else {
		ex := transport.NewExchange()
		serverTr = ex.Port("server")
		callerTr = ex.Port("caller")
	}
	server := core.NewNode(serverTr, cfg)
	caller := core.NewNode(callerTr, cfg)
	if to.traced {
		caller.Conn().SetTracing(traceSampleN, traceRingSize)
		server.Conn().SetTracing(traceSampleN, traceRingSize)
	}
	server.Export(testsvc.ExportTest(impl{}))
	binding := caller.Bind(server.Addr(), testsvc.TestName, testsvc.TestVersion)
	p := &benchPair{binding: binding, caller: caller, server: server}
	return p, func() { caller.Close(); server.Close() }, nil
}

// fanout makes n async calls to proc through cl, width at a time: issue a
// window of calls through Client.Go, then await them all. dec decodes each
// result (nil when the procedure returns nothing); pend is scratch space
// whose capacity should be width, so steady state does not allocate.
func fanout(cl *core.Client, proc uint16, n, width int, dec func(*marshal.Dec), pend []*core.Pending) error {
	ctx := context.Background()
	for n > 0 {
		w := min(width, n)
		pend = pend[:0]
		for j := 0; j < w; j++ {
			pd, err := cl.Go(ctx, proc, 0, nil)
			if err != nil {
				return err
			}
			pend = append(pend, pd)
		}
		for _, pd := range pend {
			if err := pd.Await(ctx, dec); err != nil {
				return err
			}
		}
		n -= w
	}
	return nil
}
