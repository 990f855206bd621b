// Command rpcserver exports the paper's Test interface over real UDP, the
// counterpart of the multithreaded server of §2.1.
//
//	rpcserver -listen 127.0.0.1:5530 -workers 8
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"fireflyrpc/internal/core"
	"fireflyrpc/internal/debughttp"
	"fireflyrpc/internal/marshal"
	"fireflyrpc/internal/overload"
	"fireflyrpc/internal/proto"
	"fireflyrpc/internal/testsvc"
	"fireflyrpc/internal/transport"
)

// service implements testsvc.TestServer.
type service struct{}

func (service) Null() error { return nil }

func (service) MaxResult(buffer []byte) error {
	for i := range buffer {
		buffer[i] = byte(i)
	}
	return nil
}

func (service) MaxArg(buffer []byte) error {
	if len(buffer) != 1440 {
		return errors.New("bad MaxArg length")
	}
	return nil
}

func (service) Add4(a, b, c, d int32) (int32, error) { return a + b + c + d, nil }

func (service) Reverse(data []byte, reversed *[]byte) error {
	out := make([]byte, len(data))
	for i, v := range data {
		out[len(data)-1-i] = v
	}
	*reversed = out
	return nil
}

func (service) Greet(name *marshal.Text) (*marshal.Text, error) {
	return marshal.NewText("hello, " + name.String()), nil
}

func (service) Increment(counter *uint32) error { *counter++; return nil }

func main() {
	listen := flag.String("listen", "127.0.0.1:5530", "UDP address to serve on")
	workers := flag.Int("workers", 8, "server threads kept waiting for calls")
	debugAddr := flag.String("debug", "", "serve /debug/rpc, expvar, and pprof on this HTTP address (e.g. 127.0.0.1:6060); empty = off")
	traceN := flag.Int("trace", 0, "stage-trace one call in N and record latency histograms; 0 = off")
	admit := flag.String("admit", "", "admission control as policy:capacity (fifo, lifo, or deadline; e.g. deadline:256); empty = a FIFO queue of 1024 calls")
	flag.Parse()

	var admission overload.Config
	if *admit != "" {
		var err error
		admission, err = parseAdmit(*admit)
		if err != nil {
			log.Fatalf("rpcserver: -admit: %v", err)
		}
	}

	tr, err := transport.ListenUDP(*listen)
	if err != nil {
		log.Fatalf("rpcserver: %v", err)
	}
	cfg := proto.DefaultConfig()
	cfg.Workers = *workers
	cfg.Admission = admission
	node := core.NewNode(tr, cfg)
	node.Export(testsvc.ExportTest(service{}))
	if *traceN > 0 {
		node.Conn().SetTracing(*traceN, proto.DefaultTraceRing)
	}
	if *debugAddr != "" {
		debughttp.Register("server", node.Conn())
		dbg, err := debughttp.Serve(*debugAddr)
		if err != nil {
			log.Fatalf("rpcserver: debug listener: %v", err)
		}
		defer dbg.Close()
		fmt.Printf("rpcserver: debug surface on http://%s/debug/rpc\n", dbg.Addr())
	}
	if admission.Capacity > 0 {
		fmt.Printf("rpcserver: admission control %s, capacity %d\n", admission.Policy, admission.Capacity)
	}
	fmt.Printf("rpcserver: Test interface v%d on %s (%d workers)\n",
		testsvc.TestVersion, node.Addr(), *workers)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	st := node.Conn().Stats()
	fmt.Printf("rpcserver: served %d calls (%d dups suppressed, %d result retransmits, %d shed)\n",
		st.CallsServed, st.DupCalls, st.ResultRetrans, st.CallsShed)
	node.Close()
}

// parseAdmit reads the -admit value: "policy:capacity".
func parseAdmit(s string) (overload.Config, error) {
	name, capSpec, ok := strings.Cut(s, ":")
	if !ok {
		return overload.Config{}, fmt.Errorf("want policy:capacity, got %q", s)
	}
	pol, err := overload.ParsePolicy(name)
	if err != nil {
		return overload.Config{}, err
	}
	capacity, err := strconv.Atoi(capSpec)
	if err != nil || capacity < 1 {
		return overload.Config{}, fmt.Errorf("bad capacity %q", capSpec)
	}
	return overload.Config{Policy: pol, Capacity: capacity}, nil
}
