// Package ether simulates a private 10 megabit/second Ethernet segment: a
// single shared medium to which station controllers attach. Transmissions
// are serialized FIFO (carrier-sense deference; the measured configuration
// was a private Ethernet with two stations, so collisions are negligible and
// are not modeled). Delivery happens when the last bit is transmitted.
package ether

import (
	"fireflyrpc/internal/sim"
	"fireflyrpc/internal/wire"
)

// Segment is a shared Ethernet.
type Segment struct {
	k        *sim.Kernel
	medium   *sim.Resource
	stations map[wire.MAC]*Port
	order    []*Port // attachment order, for deterministic broadcast

	// Stats
	frames    int64
	bytes     int64
	dropNoDst int64

	// faulter, when non-nil, decides per-frame impairments (drop, dup,
	// delay, corruption) at transmission time — the simulator binding of
	// the faultnet engine, so the same profiles that impair the real
	// transports impair the model. Delayed and duplicated deliveries are
	// scheduled through the kernel, so runs stay deterministic.
	faulter Faulter

	// tracer, when non-nil, observes the packet lifecycle; frame ids are
	// assigned in transmit order so traces can draw src→dst flow arrows.
	tracer    Tracer
	nextFrame uint64
}

// Tracer observes the segment's packet lifecycle. Hooks fire after the
// segment's own accounting and must only record.
type Tracer interface {
	// FrameOnWire reports that frame id finished its wire transmission at
	// `at`, having occupied the medium for txTime (the span [at-txTime, at]).
	// lost marks frames dropped by fault injection; dst is empty when the
	// frame's Ethernet header failed to parse.
	FrameOnWire(at sim.Time, id uint64, src, dst string, bytes int, txTime sim.Duration, lost bool)
	// FrameDelivered reports delivery of frame id to station dst (same
	// instant as FrameOnWire; broadcast frames deliver more than once).
	FrameDelivered(at sim.Time, id uint64, dst string, bytes int)
}

// SetTracer installs (nil removes) the segment's packet tracer.
func (s *Segment) SetTracer(tr Tracer) { s.tracer = tr }

// Fault is one frame's impairment decision, produced by a Faulter.
type Fault struct {
	Drop       bool
	Dup        bool         // deliver a second copy
	Delay      sim.Duration // extra wire latency before delivery
	DupDelay   sim.Duration // extra latency for the duplicate copy
	CorruptAt  int          // byte offset to XOR-flip; -1 = none
	CorruptXor byte
}

// NoFault is the neutral decision.
func NoFault() Fault { return Fault{CorruptAt: -1} }

// Faulter decides the fate of each transmitted frame, called once per frame
// in transmission order (event context, so implementations need no locks
// but must draw randomness deterministically).
type Faulter interface {
	Frame(size int) Fault
}

// LinkFaulter is a Faulter that also sees the frame's addressing, so a
// multi-node fabric can impair each (src, dst) link independently — the
// runbook executor's per-link profiles hang off this. When the installed
// faulter implements LinkFaulter, the segment calls LinkFrame instead of
// Frame; dst is the zero MAC for frames whose Ethernet header fails to
// parse, so implementations still consume exactly one decision per frame.
type LinkFaulter interface {
	Faulter
	LinkFrame(src, dst wire.MAC, size int) Fault
}

// SetFaulter installs (nil removes) the segment's fault-injection hook.
func (s *Segment) SetFaulter(f Faulter) { s.faulter = f }

// Medium exposes the wire's underlying resource for utilization reporting.
func (s *Segment) Medium() *sim.Resource { return s.medium }

// NewSegment creates an empty segment on the kernel's clock.
func NewSegment(k *sim.Kernel) *Segment {
	return NewSegmentNamed(k, "ethernet")
}

// NewSegmentNamed creates a segment whose medium resource carries the given
// name, so fabrics with many segments (one per node pair) stay tellable
// apart in utilization reports and on the debug surface.
func NewSegmentNamed(k *sim.Kernel, name string) *Segment {
	return &Segment{
		k:        k,
		medium:   sim.NewResource(k, name, 1),
		stations: make(map[wire.MAC]*Port),
	}
}

// Port is one station's attachment to the segment.
type Port struct {
	seg     *Segment
	mac     wire.MAC
	deliver func(frame []byte)
}

// Attach connects a station. deliver is invoked (in event context) when a
// frame addressed to mac — or broadcast — finishes transmission.
func (s *Segment) Attach(mac wire.MAC, deliver func(frame []byte)) *Port {
	if _, dup := s.stations[mac]; dup {
		panic("ether: duplicate MAC " + mac.String())
	}
	p := &Port{seg: s, mac: mac, deliver: deliver}
	s.stations[mac] = p
	s.order = append(s.order, p)
	return p
}

// MAC returns the port's address.
func (p *Port) MAC() wire.MAC { return p.mac }

// Transmit sends a frame taking txTime on the wire (computed by the caller
// from its bit-rate model, so the §4.2.2 faster-network variant needs no
// changes here). onSent fires when the last bit leaves the transmitter;
// delivery to the destination port happens at the same instant.
//
// The frame slice must not be modified by the caller after Transmit; the
// destination receives the same backing array (the simulator models DMA, not
// a copying network stack).
func (p *Port) Transmit(frame []byte, txTime sim.Duration, onSent func()) {
	s := p.seg
	id := s.nextFrame
	s.nextFrame++
	s.medium.Submit(txTime, func() {
		s.frames++
		s.bytes += int64(len(frame))
		if onSent != nil {
			onSent()
		}
		hdr, _, err := wire.UnmarshalEthernet(frame)
		fv := NoFault()
		if s.faulter != nil {
			if lf, ok := s.faulter.(LinkFaulter); ok {
				dst := wire.MAC{}
				if err == nil {
					dst = hdr.Dst
				}
				fv = lf.LinkFrame(p.mac, dst, len(frame))
			} else {
				fv = s.faulter.Frame(len(frame))
			}
		}
		if tr := s.tracer; tr != nil {
			dstName := ""
			if err == nil {
				dstName = hdr.Dst.String()
			}
			tr.FrameOnWire(s.k.Now(), id, p.mac.String(), dstName, len(frame), txTime, fv.Drop)
		}
		if fv.Drop {
			return // frame lost on the wire
		}
		if err != nil {
			return
		}
		df := frame
		if fv.CorruptAt >= 0 && fv.CorruptAt < len(frame) {
			// Corrupt a copy: the sender retains the original backing array
			// for retransmission (the simulator models DMA, not a copying
			// stack). Addressing was parsed above, so a flipped byte reaches
			// the RPC layer rather than rerouting the frame.
			cp := append([]byte(nil), frame...)
			cp[fv.CorruptAt] ^= fv.CorruptXor
			df = cp
		}
		if fv.Delay > 0 {
			s.k.After(fv.Delay, func() { s.deliver(p.mac, hdr, id, df) })
		} else {
			s.deliver(p.mac, hdr, id, df)
		}
		if fv.Dup {
			// A zero DupDelay still goes through the kernel queue, so the
			// duplicate arrives as its own event after the original.
			s.k.After(fv.DupDelay, func() { s.deliver(p.mac, hdr, id, df) })
		}
	})
}

// deliver hands a (possibly delayed or duplicated) frame to its
// destination station(s), firing the tracer per delivery.
func (s *Segment) deliver(srcMAC wire.MAC, hdr wire.EthernetHeader, id uint64, frame []byte) {
	if hdr.Dst == wire.Broadcast {
		for _, dst := range s.order { // attachment order: deterministic
			if dst.mac != srcMAC {
				if tr := s.tracer; tr != nil {
					tr.FrameDelivered(s.k.Now(), id, dst.mac.String(), len(frame))
				}
				dst.deliver(frame)
			}
		}
		return
	}
	if dst, ok := s.stations[hdr.Dst]; ok {
		if tr := s.tracer; tr != nil {
			tr.FrameDelivered(s.k.Now(), id, dst.mac.String(), len(frame))
		}
		dst.deliver(frame)
	} else {
		s.dropNoDst++
	}
}

// Stats reports traffic counters.
type Stats struct {
	Frames      int64
	Bytes       int64
	DropNoDst   int64
	Utilization float64
}

// Stats returns a snapshot of segment counters.
func (s *Segment) Stats() Stats {
	return Stats{
		Frames:      s.frames,
		Bytes:       s.bytes,
		DropNoDst:   s.dropNoDst,
		Utilization: s.medium.Utilization(),
	}
}
