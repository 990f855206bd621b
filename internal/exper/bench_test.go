package exper

import (
	"testing"
	"time"

	"fireflyrpc/internal/costmodel"
	"fireflyrpc/internal/simstack"
	"fireflyrpc/internal/wire"
)

// ---------------------------------------------------------------------------
// Simulated-testbed benchmarks: one per paper table. Each op is one
// simulated RPC (wall time measures the simulator); the reproduced paper
// quantity is attached as a custom metric.
// ---------------------------------------------------------------------------

// simBench runs b.N simulated calls and reports the paper-facing metrics.
func simBench(b *testing.B, cfg *costmodel.Config, spec *simstack.ProcSpec, threads int) simstack.RunResult {
	b.Helper()
	n := b.N
	if n < threads*25 {
		n = threads * 25 // enough calls for a steady-state window
	}
	w := simstack.NewWorld(cfg, 1)
	b.ResetTimer()
	r := w.Run(spec, threads, n)
	b.StopTimer()
	if r.Errors > 0 {
		b.Fatalf("%d simulated calls failed", r.Errors)
	}
	return r
}

// BenchmarkTableI_Null1 reproduces Table I row 1: 1 thread calling Null().
// Paper: 2661 µs/call.
func BenchmarkTableI_Null1(b *testing.B) {
	cfg := costmodel.NewConfig()
	r := simBench(b, &cfg, simstack.NullSpec(&cfg), 1)
	b.ReportMetric(r.LatencyMicros(), "simµs/call")
}

// BenchmarkTableI_Null7 reproduces Table I's Null() saturation row.
// Paper: 741 calls/second at 7 threads.
func BenchmarkTableI_Null7(b *testing.B) {
	cfg := costmodel.NewConfig()
	r := simBench(b, &cfg, simstack.NullSpec(&cfg), 7)
	b.ReportMetric(r.CallsPerSecond(), "simcalls/s")
}

// BenchmarkTableI_MaxResult4 reproduces Table I's throughput row.
// Paper: 4.65 Mb/s at 4 threads; ~1.2 caller CPUs.
func BenchmarkTableI_MaxResult4(b *testing.B) {
	cfg := costmodel.NewConfig()
	r := simBench(b, &cfg, simstack.MaxResultSpec(&cfg), 4)
	b.ReportMetric(r.MegabitsPerSecond(wire.MaxSinglePacketPayload), "simMb/s")
	b.ReportMetric(r.CallerCPU, "simcallerCPUs")
}

// benchLocalIncrement measures a Table II–V marshalling increment over the
// simulated local transport. Paper values are the table entries.
func benchLocalIncrement(b *testing.B, make func(cfg *costmodel.Config) *simstack.ProcSpec) {
	b.Helper()
	calls := b.N
	if calls < 200 {
		calls = 200
	}
	base := costmodel.NewConfig()
	base.TimingJitter = 0
	wb := simstack.NewWorld(&base, 1)
	wb.RegisterLocal(2)
	baseLat := wb.RunLocal(simstack.NullSpec(&base), 1, calls).LatencyMicros()

	cfg := costmodel.NewConfig()
	cfg.TimingJitter = 0
	w := simstack.NewWorld(&cfg, 1)
	w.RegisterLocal(2)
	spec := make(&cfg)
	w.RegisterProc(spec)
	b.ResetTimer()
	lat := w.RunLocal(spec, 1, calls).LatencyMicros()
	b.StopTimer()
	b.ReportMetric(lat-baseLat, "simµs/increment")
}

// BenchmarkTableII_Ints4 reproduces Table II's 4-integer row (paper: 32 µs).
func BenchmarkTableII_Ints4(b *testing.B) {
	benchLocalIncrement(b, func(cfg *costmodel.Config) *simstack.ProcSpec {
		return simstack.IntArgsSpec(cfg, 4)
	})
}

// BenchmarkTableIII_Fixed400 reproduces Table III's 400-byte row (140 µs).
func BenchmarkTableIII_Fixed400(b *testing.B) {
	benchLocalIncrement(b, func(cfg *costmodel.Config) *simstack.ProcSpec {
		return simstack.FixedArrayOutSpec(cfg, 400)
	})
}

// BenchmarkTableIV_Var1440 reproduces Table IV's 1440-byte row (550 µs).
func BenchmarkTableIV_Var1440(b *testing.B) {
	benchLocalIncrement(b, func(cfg *costmodel.Config) *simstack.ProcSpec {
		return simstack.VarArrayOutSpec(cfg, 1440)
	})
}

// BenchmarkTableV_Text128 reproduces Table V's 128-byte row (659 µs).
func BenchmarkTableV_Text128(b *testing.B) {
	benchLocalIncrement(b, func(cfg *costmodel.Config) *simstack.ProcSpec {
		return simstack.TextArgSpec(cfg, 128, false)
	})
}

// BenchmarkTableVI_SendReceive evaluates the send+receive model for both
// packet sizes (paper totals: 954 and 4414 µs).
func BenchmarkTableVI_SendReceive(b *testing.B) {
	cfg := costmodel.NewConfig()
	var t74, t1514 time.Duration
	for i := 0; i < b.N; i++ {
		t74 = cfg.SendReceiveTotal(74)
		t1514 = cfg.SendReceiveTotal(1514)
	}
	b.ReportMetric(float64(t74)/1e3, "simµs/74B")
	b.ReportMetric(float64(t1514)/1e3, "simµs/1514B")
}

// BenchmarkTableVII_StubsRuntime evaluates the Table VII model (606 µs).
func BenchmarkTableVII_StubsRuntime(b *testing.B) {
	cfg := costmodel.NewConfig()
	var t time.Duration
	for i := 0; i < b.N; i++ {
		t = cfg.StubRuntimeTotal()
	}
	b.ReportMetric(float64(t)/1e3, "simµs")
}

// BenchmarkTableVIII_Accounting runs the composition check: simulated
// end-to-end Null() vs the 2514 µs model (paper measured 2645).
func BenchmarkTableVIII_Accounting(b *testing.B) {
	cfg := costmodel.NewConfig()
	r := simBench(b, &cfg, simstack.NullSpec(&cfg), 1)
	model := float64(cfg.StubRuntimeTotal()+2*cfg.SendReceiveTotal(74)) / 1e3
	b.ReportMetric(r.LatencyMicros(), "simµs/measured")
	b.ReportMetric(r.LatencyMicros()-model, "simµs/unaccounted")
}

// BenchmarkTableIX_ModulaInterrupt measures Null() under the original
// Modula-2+ interrupt routine (paper: 758 µs/interrupt vs 177 assembly).
func BenchmarkTableIX_ModulaInterrupt(b *testing.B) {
	cfg := costmodel.NewConfig()
	cfg.Interrupt = costmodel.InterruptOriginalModula
	r := simBench(b, &cfg, simstack.NullSpec(&cfg), 1)
	b.ReportMetric(r.LatencyMicros(), "simµs/call")
}

// BenchmarkTableX_Uniprocessor measures the 1/1-processor Exerciser
// configuration (paper: 4.81 s per 1000 calls).
func BenchmarkTableX_Uniprocessor(b *testing.B) {
	cfg := costmodel.NewConfig()
	cfg.CallerCPUs, cfg.ServerCPUs = 1, 1
	cfg.ExerciserStubs = true
	cfg.SwappedLines = true
	r := simBench(b, &cfg, simstack.NullSpec(&cfg), 1)
	b.ReportMetric(r.SecondsPer(1000), "sims/1000calls")
}

// BenchmarkTableXI_UniprocThroughput measures 1/1 processors, 4 threads
// (paper: 2.5 Mb/s).
func BenchmarkTableXI_UniprocThroughput(b *testing.B) {
	cfg := costmodel.NewConfig()
	cfg.CallerCPUs, cfg.ServerCPUs = 1, 1
	cfg.ExerciserStubs = true
	cfg.SwappedLines = true
	r := simBench(b, &cfg, simstack.MaxResultSpec(&cfg), 4)
	b.ReportMetric(r.MegabitsPerSecond(wire.MaxSinglePacketPayload), "simMb/s")
}

// BenchmarkTableXII_Firefly5x1 measures the cross-system comparison's 5x1
// Firefly row (paper: 2.7 ms latency).
func BenchmarkTableXII_Firefly5x1(b *testing.B) {
	cfg := costmodel.NewConfig()
	cfg.ExerciserStubs = true
	cfg.SwappedLines = true
	r := simBench(b, &cfg, simstack.NullSpec(&cfg), 1)
	b.ReportMetric(r.LatencyMicros()/1000, "simms/call")
}

// BenchmarkImprovement_BusyWait re-simulates §4.2.7 (paper: saves ~440 µs).
func BenchmarkImprovement_BusyWait(b *testing.B) {
	std := costmodel.NewConfig()
	rs := simBench(b, &std, simstack.NullSpec(&std), 1)
	bw := costmodel.NewConfig()
	bw.BusyWait = true
	w := simstack.NewWorld(&bw, 1)
	rb := w.Run(simstack.NullSpec(&bw), 1, 500)
	b.ReportMetric(rs.LatencyMicros()-rb.LatencyMicros(), "simµs/saved")
}

// BenchmarkExperimentTableI runs the full Table I experiment end to end at
// reduced quality, as cmd/fireflybench does.
func BenchmarkExperimentTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		TableI(Options{Quality: 0.05, Seed: 1})
	}
}
