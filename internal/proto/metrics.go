package proto

import (
	"sync/atomic"
	"time"

	"fireflyrpc/internal/stats"
	"fireflyrpc/internal/wire"
)

// Latency histograms: while observability is enabled (SetTracing), every
// completed call's end-to-end latency is folded into two log-bucketed
// histograms — one per peer (on the peer's channel) and one per method
// (interface, proc). Recording is lock-free (stats.Hist is atomic adds,
// sharded) and allocation-free after the first call per peer/method: the
// histograms themselves are installed lazily by CAS so a Conn that never
// enables observability carries only a pointer per slot.

// methodSlots bounds the per-method table. Methods beyond the limit are
// silently unrecorded (the per-peer histogram still sees their calls); 64
// distinct procedures is far beyond any interface in the repo.
const methodSlots = 64

// methodHist is one open-addressed slot: key is (iface<<16 | proc) + 1 so
// zero means empty, claimed by CAS; the histogram is installed lazily.
type methodHist struct {
	key  atomic.Uint64
	hist atomic.Pointer[stats.Hist]
}

type methodTable struct {
	slots [methodSlots]methodHist
}

// get finds or claims the histogram for (iface, proc); nil if the table is
// full. Lock-free: a lost key CAS just re-examines the slot.
func (t *methodTable) get(iface uint32, proc uint16) *stats.Hist {
	key := (uint64(iface)<<16 | uint64(proc)) + 1
	i := (key * 0x9E3779B97F4A7C15) % methodSlots
	for probes := 0; probes < methodSlots; probes++ {
		s := &t.slots[i]
		switch k := s.key.Load(); k {
		case key:
			return lazyHist(&s.hist)
		case 0:
			if s.key.CompareAndSwap(0, key) {
				return lazyHist(&s.hist)
			}
			// Lost the race: re-examine the same slot.
			probes--
		default:
			i = (i + 1) % methodSlots
		}
	}
	return nil
}

// lazyHist installs a histogram behind p on first use.
func lazyHist(p *atomic.Pointer[stats.Hist]) *stats.Hist {
	if h := p.Load(); h != nil {
		return h
	}
	h := new(stats.Hist)
	if p.CompareAndSwap(nil, h) {
		return h
	}
	return p.Load()
}

// observeLatency folds one completed call into the per-peer and per-method
// histograms. Called from Await only while observability is enabled.
func (c *Conn) observeLatency(ch *channel, iface uint32, proc uint16, d time.Duration) {
	lazyHist(&ch.hist).Observe(d)
	if h := c.methods.get(iface, proc); h != nil {
		h.Observe(d)
	}
}

// PeerHist is one peer's latency distribution snapshot.
type PeerHist struct {
	Peer string             `json:"peer"`
	Hist stats.HistSnapshot `json:"hist"`
}

// PeerHistograms snapshots every peer's call-latency histogram (peers with
// no recorded calls are omitted).
func (c *Conn) PeerHistograms() []PeerHist {
	var out []PeerHist
	c.forEachChannel(func(ch *channel) {
		h := ch.hist.Load()
		if h == nil {
			return
		}
		snap := h.Snapshot()
		if snap.N == 0 {
			return
		}
		out = append(out, PeerHist{Peer: ch.key, Hist: snap})
	})
	return out
}

// MethodHist is one method's latency distribution snapshot.
type MethodHist struct {
	Interface uint32             `json:"interface"`
	Proc      uint16             `json:"proc"`
	Hist      stats.HistSnapshot `json:"hist"`
}

// MethodHistograms snapshots every recorded method's latency histogram.
func (c *Conn) MethodHistograms() []MethodHist {
	var out []MethodHist
	for i := range c.methods.slots {
		s := &c.methods.slots[i]
		key := s.key.Load()
		if key == 0 {
			continue
		}
		h := s.hist.Load()
		if h == nil {
			continue
		}
		snap := h.Snapshot()
		if snap.N == 0 {
			continue
		}
		key--
		out = append(out, MethodHist{
			Interface: uint32(key >> 16),
			Proc:      uint16(key & 0xffff),
			Hist:      snap,
		})
	}
	return out
}

// PeerInfo is a point-in-time view of one peer channel, for the debug
// surface: the real-stack analogue of reading the Firefly's call table.
type PeerInfo struct {
	Addr             string        `json:"addr"`
	OutstandingCalls int           `json:"outstanding_calls"`
	Activities       int           `json:"activities"`
	Executing        int64         `json:"executing"`
	IdleFor          time.Duration `json:"idle_ns"`
	RTT              time.Duration `json:"rtt_ns"` // 0 = no estimate

	// Session negotiation state (session.go): unknown/pending/negotiated/
	// legacy, the agreed session version (0 until negotiated), the raw
	// negotiated feature bits, and their names for human readers.
	Session         string   `json:"session"`
	SessionVersion  uint16   `json:"session_version"`
	SessionFeatures uint64   `json:"session_features"`
	FeatureNames    []string `json:"feature_names,omitempty"`
}

// Peers snapshots the live peer table.
func (c *Conn) Peers() []PeerInfo {
	now := c.clk.Now().UnixNano()
	var out []PeerInfo
	c.forEachChannel(func(ch *channel) {
		ch.callsMu.Lock()
		calls := len(ch.calls)
		ch.callsMu.Unlock()
		ch.actsMu.Lock()
		acts := len(ch.acts)
		ch.actsMu.Unlock()
		ch.rttMu.Lock()
		var rtt time.Duration
		if ch.rtt.valid {
			rtt = ch.rtt.srtt
		}
		ch.rttMu.Unlock()
		idle := time.Duration(0)
		if last := ch.lastUsed.Load(); last > 0 && now > last {
			idle = time.Duration(now - last)
		}
		sess := ch.sess.Load()
		var feats uint64
		var version uint16
		if sessStateOf(sess) == sessNegotiated {
			version = sessVersionOf(sess)
			feats = sessFeaturesOf(sess)
		}
		out = append(out, PeerInfo{
			Addr:             ch.key,
			OutstandingCalls: calls,
			Activities:       acts,
			Executing:        ch.executing.Load(),
			IdleFor:          idle,
			RTT:              rtt,
			Session:          sessStateName(sessStateOf(sess)),
			SessionVersion:   version,
			SessionFeatures:  feats,
			FeatureNames:     wire.FeatureNames(feats),
		})
	})
	return out
}
