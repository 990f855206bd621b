// Tail-latency and overload sweeps: the chaos-engineering counterpart of
// the Table I cells. Where BenchmarkStack measures the clean fast path,
// TailSweep measures the latency *distribution* under injected loss — the
// paper's retransmission machinery priced in percentiles — and
// OverloadSweep measures goodput at 2× saturation under each admission
// policy.
package realbench

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"fireflyrpc/internal/core"
	"fireflyrpc/internal/faultnet"
	"fireflyrpc/internal/overload"
	"fireflyrpc/internal/proto"
	"fireflyrpc/internal/runbook"
	"fireflyrpc/internal/stats"
	"fireflyrpc/internal/testsvc"
	"fireflyrpc/internal/transport"
)

// TailOptions configures the loss×load tail-latency sweep.
type TailOptions struct {
	Losses         []float64 // frame drop probability per direction; default 0, 0.01, 0.10
	Threads        []int     // caller threads; default 1, 4
	CallsPerThread int       // default 2000
	Seed           uint64    // fault schedule seed; default 1
	Log            io.Writer
}

// TailCell is one (loss, threads) cell: the full latency distribution of
// Null calls over an impaired in-process link.
type TailCell struct {
	Loss        float64 `json:"loss"`
	Threads     int     `json:"threads"`
	Calls       int     `json:"calls"`
	Errors      int     `json:"errors"`
	Retransmits int64   `json:"retransmits"`
	MeanUs      float64 `json:"mean_us"`
	P50Us       float64 `json:"p50_us"`
	P99Us       float64 `json:"p99_us"`
	P999Us      float64 `json:"p999_us"`
	MaxUs       float64 `json:"max_us"`
}

// TailSweep runs every loss×threads cell. Cells with the same options and
// seed reproduce the same impairment schedule run to run.
func TailSweep(opts TailOptions) ([]TailCell, error) {
	// Defaults come from the canonical scenario grid shared with the
	// committed runbooks, so both suites probe the same operating points.
	losses := opts.Losses
	if len(losses) == 0 {
		losses = runbook.TailLosses
	}
	threads := opts.Threads
	if len(threads) == 0 {
		threads = runbook.TailThreads
	}
	calls := opts.CallsPerThread
	if calls == 0 {
		calls = runbook.TailCallsPerThread
	}
	seed := opts.Seed
	if seed == 0 {
		seed = runbook.TailSeed
	}
	var cells []TailCell
	for _, loss := range losses {
		for _, th := range threads {
			cell, err := tailCell(loss, th, calls, seed)
			if err != nil {
				return cells, err
			}
			cells = append(cells, cell)
			if opts.Log != nil {
				fmt.Fprintf(opts.Log,
					"  loss=%-5.2g t%d: %6d calls  p50 %7.1fµs  p99 %8.1fµs  p99.9 %8.1fµs  (%d retransmits)\n",
					loss, th, cell.Calls, cell.P50Us, cell.P99Us, cell.P999Us, cell.Retransmits)
			}
		}
	}
	return cells, nil
}

func tailCell(loss float64, threads, callsPerThread int, seed uint64) (TailCell, error) {
	ex := transport.NewExchange()
	cfg := proto.Config{
		// A tight retransmission interval keeps the impaired tail bounded
		// by the adaptive timer, not by a worst-case constant.
		RetransInterval: 4 * time.Millisecond,
		MaxRetries:      25,
		Workers:         2 * threads,
	}
	ft := faultnet.Wrap(ex.Port("caller"), faultnet.Loss(loss), seed)
	server := core.NewNode(ex.Port("server"), cfg)
	caller := core.NewNode(ft, cfg)
	defer caller.Close()
	defer server.Close()
	server.Export(testsvc.ExportTest(impl{}))
	binding := caller.Bind(server.Addr(), testsvc.TestName, testsvc.TestVersion)

	perThread := make([][]time.Duration, threads)
	var errCount atomic.Int64
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			cl := testsvc.NewTestClient(binding)
			lat := make([]time.Duration, 0, callsPerThread)
			for i := 0; i < callsPerThread; i++ {
				start := time.Now()
				if err := cl.Null(); err != nil {
					errCount.Add(1)
					continue
				}
				lat = append(lat, time.Since(start))
			}
			perThread[th] = lat
		}(th)
	}
	wg.Wait()

	var s stats.Sample
	for _, lat := range perThread {
		for _, d := range lat {
			s.Add(d)
		}
	}
	if s.N() == 0 {
		return TailCell{}, fmt.Errorf("tail cell loss=%g t%d: no call succeeded", loss, threads)
	}
	return TailCell{
		Loss:        loss,
		Threads:     threads,
		Calls:       s.N(),
		Errors:      int(errCount.Load()),
		Retransmits: caller.Conn().Stats().Retransmits,
		MeanUs:      s.Mean(),
		P50Us:       s.Percentile(50),
		P99Us:       s.Percentile(99),
		P999Us:      s.Percentile(99.9),
		MaxUs:       s.Max(),
	}, nil
}

// OverloadOptions configures the 2×-saturation goodput comparison.
type OverloadOptions struct {
	ServiceUs int           // handler busy time per call; default 300
	Workers   int           // server worker pool; default 2
	Callers   int           // closed-loop callers at the overload point; default 32
	Capacity  int           // admission queue capacity; default 256
	Timeout   time.Duration // per-call deadline; default 3ms
	Duration  time.Duration // measured window per cell; default 400ms
	Log       io.Writer
}

// OverloadCell is one admission-policy cell: goodput under a closed-loop
// caller population.
type OverloadCell struct {
	Policy        string  `json:"policy"` // baseline | none | fifo | lifo | deadline
	Callers       int     `json:"callers"`
	Completed     int64   `json:"completed"`
	Timeouts      int64   `json:"timeouts"`
	Overloads     int64   `json:"overloads"` // fast-failed by wire-level rejection
	Shed          int64   `json:"shed"`      // server-side admission sheds
	GoodputPerSec float64 `json:"goodput_per_sec"`
	P99Us         float64 `json:"p99_us"` // of completed calls
}

// OverloadSweep measures goodput for: the unsaturated baseline (as many
// callers as workers, default dispatch queue), then a 2×-saturated caller
// population with the default queue, FIFO admission, and
// deadline-shedding admission. "Default" leaves Config.Admission zero: a
// FIFO queue of 1024 calls, deeper than the callers can fill, so it never
// sheds. The paper-shaped claim under test: FIFO
// queueing collapses once queue delay exceeds the deadline (the server
// serves only the dead), while deadline shedding keeps goodput near the
// unsaturated baseline.
func OverloadSweep(opts OverloadOptions) ([]OverloadCell, error) {
	// Defaults come from the canonical operating point shared with the
	// committed runbooks (runbook.DefaultOverload), so the real-stack sweep
	// and the overload runbooks measure the same saturation regime.
	canon := runbook.DefaultOverload()
	if opts.ServiceUs == 0 {
		opts.ServiceUs = canon.ServiceUs
	}
	if opts.Workers == 0 {
		opts.Workers = canon.Workers
	}
	if opts.Callers == 0 {
		opts.Callers = canon.Callers
	}
	if opts.Capacity == 0 {
		opts.Capacity = canon.Capacity
	}
	if opts.Timeout == 0 {
		opts.Timeout = canon.Timeout
	}
	if opts.Duration == 0 {
		opts.Duration = canon.Duration
	}
	cells := []struct {
		name    string
		callers int
		admit   overload.Config
	}{
		{"baseline", opts.Workers, overload.Config{}},
		// "none": no policy configured, so the server drains its default
		// FIFO queue, which these callers cannot fill.
		{"none", opts.Callers, overload.Config{}},
		{"fifo", opts.Callers, overload.Config{Policy: overload.FIFO, Capacity: opts.Capacity}},
		{"deadline", opts.Callers, overload.Config{Policy: overload.Deadline, Capacity: opts.Capacity}},
	}
	var out []OverloadCell
	for _, c := range cells {
		cell, err := overloadCell(c.name, c.callers, c.admit, opts)
		if err != nil {
			return out, err
		}
		out = append(out, cell)
		if opts.Log != nil {
			fmt.Fprintf(opts.Log,
				"  %-8s %2d callers: %6.0f good calls/s  (%d ok, %d timeout, %d overload, %d shed)  p99 %7.1fµs\n",
				cell.Policy, cell.Callers, cell.GoodputPerSec,
				cell.Completed, cell.Timeouts, cell.Overloads, cell.Shed, cell.P99Us)
		}
	}
	return out, nil
}

func overloadCell(name string, callers int, admit overload.Config, opts OverloadOptions) (OverloadCell, error) {
	ex := transport.NewExchange()
	serverCfg := proto.Config{
		RetransInterval: 20 * time.Millisecond,
		MaxRetries:      10,
		Workers:         opts.Workers,
		Admission:       admit,
	}
	callerCfg := proto.Config{
		RetransInterval: 20 * time.Millisecond,
		MaxRetries:      10,
		Workers:         4,
		CallTimeout:     opts.Timeout,
	}
	service := time.Duration(opts.ServiceUs) * time.Microsecond
	server := core.NewNode(ex.Port("server"), serverCfg)
	caller := core.NewNode(ex.Port("caller"), callerCfg)
	defer caller.Close()
	defer server.Close()
	server.Export(testsvc.ExportTest(sleepImpl{d: service}))
	binding := caller.Bind(server.Addr(), testsvc.TestName, testsvc.TestVersion)

	var completed, timeouts, overloads atomic.Int64
	var latMu sync.Mutex
	var lat stats.Sample
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := testsvc.NewTestClient(binding)
			for {
				select {
				case <-stop:
					return
				default:
				}
				start := time.Now()
				err := cl.Null()
				switch {
				case err == nil:
					completed.Add(1)
					latMu.Lock()
					lat.Add(time.Since(start))
					latMu.Unlock()
				case errors.Is(err, proto.ErrOverloaded):
					overloads.Add(1)
					// A real client backs off on an explicit overload
					// rejection; without this the reject loop itself
					// becomes the load.
					time.Sleep(opts.Timeout / 2)
				case errors.Is(err, proto.ErrTimeout):
					timeouts.Add(1)
				default:
					return
				}
			}
		}()
	}
	// Warm up, then count only the steady-state window.
	time.Sleep(opts.Duration / 4)
	completed.Store(0)
	timeouts.Store(0)
	overloads.Store(0)
	latMu.Lock()
	lat = stats.Sample{}
	latMu.Unlock()
	start := time.Now()
	time.Sleep(opts.Duration)
	good := completed.Load()
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()

	var shed int64
	if s, ok := server.Conn().AdmissionStats(); ok {
		shed = s.ShedCapacity + s.ShedDeadline
	}
	latMu.Lock()
	p99 := lat.Percentile(99)
	latMu.Unlock()
	return OverloadCell{
		Policy:        name,
		Callers:       callers,
		Completed:     good,
		Timeouts:      timeouts.Load(),
		Overloads:     overloads.Load(),
		Shed:          shed,
		GoodputPerSec: float64(good) / elapsed.Seconds(),
		P99Us:         p99,
	}, nil
}

// sleepImpl is the overload-benchmark server: Null takes a fixed service
// time, modeling a real handler whose work dominates dispatch. Sleeping
// (rather than spinning) keeps the measured capacity worker-bound instead
// of CPU-bound, so the sweep behaves the same on one core as on many.
type sleepImpl struct {
	impl
	d time.Duration
}

func (s sleepImpl) Null() error {
	time.Sleep(s.d)
	return nil
}
