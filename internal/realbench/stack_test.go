package realbench

import (
	"fmt"
	"runtime/debug"
	"sync"
	"testing"

	"fireflyrpc/internal/core"
	"fireflyrpc/internal/marshal"
	"fireflyrpc/internal/testsvc"
)

// The real-stack Table I analogue. Run the whole matrix on one machine with
//
//	go test -run '^$' -bench Stack -benchmem -count 10 ./internal/realbench
//
// and compare two commits' runs with benchstat. Sub-benchmarks are named
// <transport>/<case>/t<threads> for blocking calls split across that many
// caller threads (one Client per thread, as on the Firefly) and
// <transport>/<case>Async/o<n> for one caller keeping n calls in flight
// through Client.Go/Await.

// payloadBytes is the single-packet payload used by MaxArg and MaxResult.
const payloadBytes = 1440

// stackTransports are the matrix's transport rows; mem+trace is the
// exchange with stage tracing on at the production posture. Each row pins
// the heap allocations per Null call, measured across the whole process
// (caller stub, protocol, transport, server stub), for one blocking caller
// and for async fan-outs; TCP pays for its stream framing and
// per-connection writer.
var stackTransports = []struct {
	name                        string
	to                          trOpts
	blockingAllocs, asyncAllocs int64
}{
	{"mem", trOpts{}, 1, 1},
	{"mem+trace", trOpts{traced: true}, 1, 1},
	{"udp", trOpts{kind: "udp"}, 1, 1},
	{"udpbatch", trOpts{kind: "udpbatch"}, 1, 1},
	{"tcp", trOpts{kind: "tcp"}, 5, 3},
}

// callFunc runs one call on a per-thread client with a per-thread buffer.
type callFunc func(cl *testsvc.TestClient, buf []byte) error

var cases = []struct {
	name  string
	bytes int // payload bytes moved per call, for MB/s
	call  callFunc
}{
	{"Null", 0, func(cl *testsvc.TestClient, _ []byte) error { return cl.Null() }},
	{"MaxArg", payloadBytes, func(cl *testsvc.TestClient, buf []byte) error { return cl.MaxArg(buf) }},
	{"MaxResult", payloadBytes, func(cl *testsvc.TestClient, buf []byte) error { return cl.MaxResult(buf) }},
}

var asyncCases = []struct {
	name  string
	bytes int
	proc  uint16
	dec   bool // decode a payloadBytes result into a reusable buffer
}{
	{"NullAsync", 0, testsvc.TestProcNull, false},
	{"MaxResultAsync", payloadBytes, testsvc.TestProcMaxResult, true},
}

// blocking makes n calls split across the clients, one goroutine each.
func blocking(clients []*testsvc.TestClient, call callFunc, n int) error {
	errs := make(chan error, len(clients))
	var wg sync.WaitGroup
	for t, cl := range clients {
		k := n / len(clients)
		if t < n%len(clients) {
			k++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, payloadBytes)
			for i := 0; i < k; i++ {
				if err := call(cl, buf); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

func newClients(p *benchPair, threads int) []*testsvc.TestClient {
	clients := make([]*testsvc.TestClient, threads)
	for i := range clients {
		clients[i] = testsvc.NewTestClient(p.binding)
	}
	return clients
}

// resultDec decodes a MaxResult reply into a reusable buffer.
func resultDec() func(*marshal.Dec) {
	buf := make([]byte, payloadBytes)
	return func(d *marshal.Dec) { d.FixedBytes(buf) }
}

func stackPair(tb testing.TB, to trOpts, workers int) *benchPair {
	tb.Helper()
	p, done, err := pair(to, workers)
	if err != nil {
		tb.Skip("no loopback:", err)
	}
	tb.Cleanup(done)
	return p
}

func BenchmarkStack(b *testing.B) {
	for _, tr := range stackTransports {
		b.Run(tr.name, func(b *testing.B) {
			for _, c := range cases {
				for _, threads := range []int{1, 2, 4, 8} {
					b.Run(fmt.Sprintf("%s/t%d", c.name, threads), func(b *testing.B) {
						clients := newClients(stackPair(b, tr.to, 2*threads), threads)
						b.SetBytes(int64(c.bytes))
						b.ReportAllocs()
						b.ResetTimer()
						if err := blocking(clients, c.call, b.N); err != nil {
							b.Fatal(err)
						}
					})
				}
			}
			for _, c := range asyncCases {
				for _, width := range []int{1, 8, 64} {
					b.Run(fmt.Sprintf("%s/o%d", c.name, width), func(b *testing.B) {
						cl := stackPair(b, tr.to, 8).binding.NewClient()
						var dec func(*marshal.Dec)
						if c.dec {
							dec = resultDec()
						}
						pend := make([]*core.Pending, 0, width)
						b.SetBytes(int64(c.bytes))
						b.ReportAllocs()
						b.ResetTimer()
						if err := fanout(cl, c.proc, b.N, width, dec, pend); err != nil {
							b.Fatal(err)
						}
					})
				}
			}
			if tr.name != "udp" {
				return
			}
			// A 100 KiB argument and result: the fragmentation path.
			b.Run("Reverse100K/t1", func(b *testing.B) {
				call := reverse100K(stackPair(b, tr.to, 2))
				b.SetBytes(reverseBytes)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := call(); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// reverseBytes is Reverse100K's argument and result size: 72 fragments each
// way over udp.
const reverseBytes = 100 * 1024

// reverseAllocs is the allocation budget of one blocking Reverse100K over
// udp. Both sides reassemble straight into recycled buffers, so nothing is
// allocated per fragment. What is left is the send pump goroutine and its
// exit channel, the call's done channel, the server's one result-fragment
// timer (three objects), and the server stub's decoded argument, reversed
// array and reply.
const reverseAllocs = 9

// reverse100K returns a blocking Reverse of a reverseBytes array on a
// fresh client of p.
func reverse100K(p *benchPair) func() error {
	cl := testsvc.NewTestClient(p.binding)
	data := make([]byte, reverseBytes)
	var out []byte
	return func() error { return cl.Reverse(data, &out) }
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestStackAllocBudgets is the machine-independent half of BenchmarkStack:
// allocation counts do not depend on the machine, so they are gated here,
// for blocking Null and async fan-outs of 8 and 64, and for the udp row's
// fragmented Reverse100K, rather than compared across runs. The per-call
// figure truncates like the benchmark's allocs/op, so a rare runtime
// allocation amortized over many calls does not trip it, while any new
// per-call allocation does.
func TestStackAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the call path")
	}
	const calls = 2000
	for _, tr := range stackTransports {
		t.Run(tr.name, func(t *testing.T) {
			p := stackPair(t, tr.to, 8)
			clients := newClients(p, 1)
			checkAllocs(t, "blocking Null", tr.blockingAllocs, calls, func() error { return blocking(clients, cases[0].call, calls) })
			cl := p.binding.NewClient()
			for _, width := range []int{8, 64} {
				pend := make([]*core.Pending, 0, width)
				checkAllocs(t, fmt.Sprintf("async Null o%d", width), tr.asyncAllocs, calls, func() error {
					return fanout(cl, testsvc.TestProcNull, calls, width, nil, pend)
				})
			}
			if tr.name != "udp" {
				return
			}
			// Each Reverse100K takes milliseconds; 100 of them after one
			// warm-up call (which grows the recycled buffers) still amortize
			// any one-off allocation below one per call. The collector is
			// off while they run: at 200 KB of garbage per call, refilling
			// the sync.Pools each GC empties adds 0.7–0.9 allocs/call,
			// depending on how many GCs a run happens to see.
			call := reverse100K(p)
			if err := call(); err != nil {
				t.Fatal(err)
			}
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			checkAllocs(t, "blocking Reverse100K", reverseAllocs, 100, func() error {
				for i := 0; i < 100; i++ {
					if err := call(); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}

// checkAllocs runs f, which makes calls calls, and fails t if they allocate
// more than budget objects per call.
func checkAllocs(t *testing.T, what string, budget int64, calls int, f func() error) {
	t.Helper()
	var err error
	total := testing.AllocsPerRun(1, func() { err = f() })
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(total) / int64(calls); got > budget {
		t.Errorf("%s: %d allocs/call, budget %d", what, got, budget)
	} else {
		t.Logf("%s: %d allocs/call (budget %d)", what, got, budget)
	}
}
