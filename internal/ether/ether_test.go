package ether

import (
	"testing"

	"fireflyrpc/internal/sim"
	"fireflyrpc/internal/wire"
)

func buildFrame(t *testing.T, src, dst wire.MAC, payload int) []byte {
	t.Helper()
	s := wire.Endpoint{MAC: src, IP: wire.IPForHost(1), Port: wire.RPCPort}
	d := wire.Endpoint{MAC: dst, IP: wire.IPForHost(2), Port: wire.RPCPort}
	f, err := wire.BuildPacket(s, d, wire.RPCHeader{Type: wire.TypeCall, FragCount: 1},
		make([]byte, payload), true)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestUnicastDelivery(t *testing.T) {
	k := sim.NewKernel(1)
	seg := NewSegment(k)
	a, b := wire.MACForHost(1), wire.MACForHost(2)
	var got []byte
	var at sim.Time
	pa := seg.Attach(a, func(f []byte) { t.Error("frame echoed to sender") })
	seg.Attach(b, func(f []byte) { got = f; at = k.Now() })
	frame := buildFrame(t, a, b, 0)
	var sentAt sim.Time
	k.After(0, func() {
		pa.Transmit(frame, sim.Micros(60), func() { sentAt = k.Now() })
	})
	k.Run()
	if got == nil {
		t.Fatal("frame not delivered")
	}
	if at != sim.Time(sim.Micros(60)) || sentAt != at {
		t.Fatalf("delivered at %v, sent at %v; want both 60µs", at, sentAt)
	}
	if pa.MAC() != a {
		t.Fatal("port MAC wrong")
	}
}

func TestMediumSerializesTransmissions(t *testing.T) {
	k := sim.NewKernel(1)
	seg := NewSegment(k)
	a, b, c := wire.MACForHost(1), wire.MACForHost(2), wire.MACForHost(3)
	var arrivals []sim.Time
	pa := seg.Attach(a, nil)
	pc := seg.Attach(c, nil)
	seg.Attach(b, func(f []byte) { arrivals = append(arrivals, k.Now()) })
	f1 := buildFrame(t, a, b, 0)
	f2 := buildFrame(t, c, b, 0)
	k.After(0, func() {
		pa.Transmit(f1, sim.Micros(100), nil)
		pc.Transmit(f2, sim.Micros(100), nil) // must defer to the first
	})
	k.Run()
	if len(arrivals) != 2 {
		t.Fatalf("%d arrivals, want 2", len(arrivals))
	}
	if arrivals[0] != sim.Time(sim.Micros(100)) || arrivals[1] != sim.Time(sim.Micros(200)) {
		t.Fatalf("arrivals %v, want 100µs and 200µs", arrivals)
	}
}

func TestBroadcastDelivery(t *testing.T) {
	k := sim.NewKernel(1)
	seg := NewSegment(k)
	a := wire.MACForHost(1)
	var got int
	pa := seg.Attach(a, func(f []byte) { t.Error("broadcast echoed to sender") })
	seg.Attach(wire.MACForHost(2), func(f []byte) { got++ })
	seg.Attach(wire.MACForHost(3), func(f []byte) { got++ })
	frame := buildFrame(t, a, wire.Broadcast, 0)
	k.After(0, func() { pa.Transmit(frame, sim.Micros(60), nil) })
	k.Run()
	if got != 2 {
		t.Fatalf("broadcast reached %d stations, want 2", got)
	}
}

func TestUnknownDestinationDropped(t *testing.T) {
	k := sim.NewKernel(1)
	seg := NewSegment(k)
	a := wire.MACForHost(1)
	pa := seg.Attach(a, nil)
	frame := buildFrame(t, a, wire.MACForHost(99), 0)
	k.After(0, func() { pa.Transmit(frame, sim.Micros(60), nil) })
	k.Run()
	if seg.Stats().DropNoDst != 1 {
		t.Fatalf("dropNoDst = %d, want 1", seg.Stats().DropNoDst)
	}
}

// dropAll is a Faulter that loses every frame.
type dropAll struct{}

func (dropAll) Frame(int) Fault {
	f := NoFault()
	f.Drop = true
	return f
}

func TestLossRateDropsFrames(t *testing.T) {
	k := sim.NewKernel(7)
	seg := NewSegment(k)
	seg.SetFaulter(dropAll{})
	a, b := wire.MACForHost(1), wire.MACForHost(2)
	pa := seg.Attach(a, nil)
	delivered := 0
	seg.Attach(b, func(f []byte) { delivered++ })
	frame := buildFrame(t, a, b, 0)
	k.After(0, func() { pa.Transmit(frame, sim.Micros(60), nil) })
	k.Run()
	if delivered != 0 {
		t.Fatal("frame delivered despite 100% loss")
	}
	if seg.Stats().Frames != 1 {
		t.Fatal("transmission not counted")
	}
}

func TestDuplicateMACPanics(t *testing.T) {
	k := sim.NewKernel(1)
	seg := NewSegment(k)
	seg.Attach(wire.MACForHost(1), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate MAC did not panic")
		}
	}()
	seg.Attach(wire.MACForHost(1), nil)
}

func TestStatsCounters(t *testing.T) {
	k := sim.NewKernel(1)
	seg := NewSegment(k)
	a, b := wire.MACForHost(1), wire.MACForHost(2)
	pa := seg.Attach(a, nil)
	seg.Attach(b, func(f []byte) {})
	frame := buildFrame(t, a, b, 100)
	k.After(0, func() { pa.Transmit(frame, sim.Micros(139), nil) })
	k.After(sim.Micros(1000), func() {})
	k.Run()
	st := seg.Stats()
	if st.Frames != 1 || st.Bytes != int64(len(frame)) {
		t.Fatalf("stats %+v", st)
	}
	if st.Utilization < 0.13 || st.Utilization > 0.15 {
		t.Fatalf("utilization = %v, want ~0.139", st.Utilization)
	}
}
