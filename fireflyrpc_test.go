package fireflyrpc

import (
	"strings"
	"testing"
	"time"
)

// TestFacadeRealStack drives the public API end to end: exchange, nodes,
// interface, binding, client.
func TestFacadeRealStack(t *testing.T) {
	ex := NewExchange()
	server := NewNode(ex.Port("s"), DefaultProtoConfig())
	caller := NewNode(ex.Port("c"), DefaultProtoConfig())
	defer server.Close()
	defer caller.Close()

	iface := NewInterface("Echo", 1).
		Proc(1, func(_ Addr, d *Dec) ([]byte, error) {
			msg := d.GetText()
			if err := d.Err(); err != nil {
				return nil, err
			}
			out := NewText(strings.ToUpper(msg.String()))
			return Reply(1+4+out.Len(), func(e *Enc) { e.PutText(out) })
		})
	server.Export(iface)

	binding := caller.Bind(server.Addr(), "Echo", 1)
	if err := binding.Probe(time.Second); err != nil {
		t.Fatalf("probe: %v", err)
	}
	client := binding.NewClient()
	in := NewText("whisper")
	var out *Text
	err := client.Call(1, 1+4+in.Len(),
		func(e *Enc) { e.PutText(in) },
		func(d *Dec) { out = d.GetText() })
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != "WHISPER" {
		t.Fatalf("out = %q", out.String())
	}
}

// TestFacadeSimulator drives the simulated testbed through the facade and
// checks the headline number.
func TestFacadeSimulator(t *testing.T) {
	cfg := NewSimConfig()
	w := NewSimWorld(&cfg, 1)
	r := w.Run(SimNull(&cfg), 1, 300)
	lat := r.LatencyMicros()
	if lat < 2500 || lat > 2800 {
		t.Fatalf("simulated Null latency %.0f µs, want ~2661", lat)
	}
	if SimMaxResult(&cfg).ResultBytes != 1440 || SimMaxArg(&cfg).ArgBytes != 1440 {
		t.Fatal("Test interface payload sizes wrong")
	}
}

// TestFacadeExperiments lists and runs one experiment through the facade.
func TestFacadeExperiments(t *testing.T) {
	all := Experiments()
	if len(all) != 19 { // Tables I–XII + util + improvements + streaming + ablations + tail + overload + hedge
		t.Fatalf("%d experiments, want 19", len(all))
	}
	e, ok := ExperimentByID("VII")
	if !ok {
		t.Fatal("Table VII missing")
	}
	tb := e.Run(ExperimentOptions{Quality: 0.05, Seed: 1})
	if !strings.Contains(tb.Render(), "606") {
		t.Fatal("Table VII does not show the 606 µs total")
	}
}

// TestFacadeIDL compiles and generates stubs through the facade.
func TestFacadeIDL(t *testing.T) {
	m, err := ParseIDL("DEFINITION MODULE Tiny; PROCEDURE Ping(); END Tiny.")
	if err != nil {
		t.Fatal(err)
	}
	code, err := GenerateStubs(m, "tiny")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(code), "TinyClient") {
		t.Fatal("generated code missing client stub")
	}
}
