// Package faultnet is the deterministic network-impairment layer: a single
// decision engine that drops, duplicates, delays, reorders, corrupts, and
// rate-limits frames according to a declarative Profile, wired behind both
// the real transports (see Wrap) and the simulator's Ethernet segment (see
// Profile.SimFaulter). The same profile therefore produces the same *kind*
// of network on the real stack and on the model, and — because every random
// decision is a pure function of (seed, direction, frame index) — the same
// seed produces the identical impairment schedule on every run, regardless
// of goroutine interleaving. That purity is the package's load-bearing
// invariant: tests compare schedules byte for byte, and the simulator's
// determinism guarantee would otherwise not survive fault injection.
//
// A Profile is JSON-serializable, so Load reads one from a file such as:
//
//	{"name": "lossy", "out": {"drop": 0.1}, "in": {"drop": 0.1, "dup": 0.05}}
//
// Scripted partitions and phase changes use a Plan of timed transitions:
// each Phase replaces the active impairments once the profile has been
// running for its After duration (a total partition is a phase with drop 1).
package faultnet

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Dir distinguishes the two impairment directions of a wrapped endpoint:
// DirOut covers frames it sends, DirIn frames it receives. The simulated
// Ethernet is a single shared wire, so its faulter applies DirOut to every
// frame regardless of station.
type Dir uint8

const (
	DirOut Dir = iota
	DirIn
)

func (d Dir) String() string {
	if d == DirIn {
		return "in"
	}
	return "out"
}

// Duration is time.Duration with human-readable JSON ("2ms"), so profile
// files stay writable by hand. Plain nanosecond numbers are also accepted.
type Duration time.Duration

// MarshalJSON renders the duration as its String form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts either a duration string ("1.5ms") or nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("faultnet: bad duration %q: %v", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("faultnet: duration must be a string or nanoseconds: %s", b)
	}
	*d = Duration(ns)
	return nil
}

// Impair is one direction's impairment settings. The zero value impairs
// nothing and costs the fast path nothing (no random draws are made).
type Impair struct {
	// Drop is the probability in [0,1] that a frame is silently discarded.
	Drop float64 `json:"drop,omitempty"`
	// Dup is the probability that a frame is delivered twice. The copy is
	// always delivered from the impairment scheduler's own goroutine, so
	// duplicates genuinely race the original — which is the point.
	Dup float64 `json:"dup,omitempty"`
	// Reorder is the probability that a frame is held back by ReorderDelay,
	// letting later frames overtake it.
	Reorder float64 `json:"reorder,omitempty"`
	// ReorderDelay is the hold-back applied to reordered frames; when zero
	// and Reorder is set, 1ms is used.
	ReorderDelay Duration `json:"reorder_delay,omitempty"`
	// Delay is a fixed latency added to every frame.
	Delay Duration `json:"delay,omitempty"`
	// Jitter adds a uniform [0, Jitter) latency on top of Delay.
	Jitter Duration `json:"jitter,omitempty"`
	// Corrupt is the probability that one byte of the frame is XOR-flipped.
	Corrupt float64 `json:"corrupt,omitempty"`
	// BandwidthBps, when positive, serializes frames through a link of this
	// bit rate: each frame's transmission occupies size*8/BandwidthBps
	// seconds and queues behind the previous frame's.
	BandwidthBps int64 `json:"bandwidth_bps,omitempty"`
}

// zero reports whether the settings impair nothing — the fast-path check
// that keeps a wrapped transport free of random draws under a zero profile.
func (im Impair) zero() bool {
	return im.Drop == 0 && im.Dup == 0 && im.Reorder == 0 && im.Delay == 0 &&
		im.Jitter == 0 && im.Corrupt == 0 && im.BandwidthBps == 0
}

// Validate rejects out-of-range settings.
func (im Impair) validate(where string) error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"drop", im.Drop}, {"dup", im.Dup}, {"reorder", im.Reorder}, {"corrupt", im.Corrupt}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faultnet: %s.%s = %v out of [0,1]", where, p.name, p.v)
		}
	}
	if im.Delay < 0 || im.Jitter < 0 || im.ReorderDelay < 0 {
		return fmt.Errorf("faultnet: %s has a negative duration", where)
	}
	if im.BandwidthBps < 0 {
		return fmt.Errorf("faultnet: %s.bandwidth_bps = %d negative", where, im.BandwidthBps)
	}
	return nil
}

// Phase is one timed transition in a profile's Plan: After the profile has
// run this long, Out and In replace the active impairments entirely.
type Phase struct {
	After Duration `json:"after"`
	Out   Impair   `json:"out,omitempty"`
	In    Impair   `json:"in,omitempty"`
}

// Profile is a complete impairment description: the initial per-direction
// settings plus an optional Plan of timed transitions.
type Profile struct {
	Name string  `json:"name,omitempty"`
	Out  Impair  `json:"out,omitempty"`
	In   Impair  `json:"in,omitempty"`
	Plan []Phase `json:"plan,omitempty"`
}

// Loss is the common symmetric-loss profile: drop probability p in both
// directions.
func Loss(p float64) Profile {
	return Profile{
		Name: fmt.Sprintf("loss%g", p),
		Out:  Impair{Drop: p},
		In:   Impair{Drop: p},
	}
}

// Validate checks every phase's settings and sorts the Plan by After.
func (p *Profile) Validate() error {
	if err := p.Out.validate("out"); err != nil {
		return err
	}
	if err := p.In.validate("in"); err != nil {
		return err
	}
	for i := range p.Plan {
		if err := p.Plan[i].Out.validate(fmt.Sprintf("plan[%d].out", i)); err != nil {
			return err
		}
		if err := p.Plan[i].In.validate(fmt.Sprintf("plan[%d].in", i)); err != nil {
			return err
		}
		if p.Plan[i].After < 0 {
			return fmt.Errorf("faultnet: plan[%d].after negative", i)
		}
	}
	sort.SliceStable(p.Plan, func(i, j int) bool { return p.Plan[i].After < p.Plan[j].After })
	return nil
}

// at returns the impairments active for dir once the profile has been
// running for elapsed.
func (p *Profile) at(dir Dir, elapsed time.Duration) Impair {
	out, in := p.Out, p.In
	for i := range p.Plan {
		if elapsed < time.Duration(p.Plan[i].After) {
			break
		}
		out, in = p.Plan[i].Out, p.Plan[i].In
	}
	if dir == DirIn {
		return in
	}
	return out
}

// Load reads and validates a profile JSON file.
func Load(path string) (*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("faultnet: %s: %v", path, err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("faultnet: %s: %v", path, err)
	}
	if p.Name == "" {
		p.Name = strings.TrimSuffix(strings.TrimSuffix(path, ".json"), ".profile")
	}
	return &p, nil
}

// Verdict is the engine's decision for one frame.
type Verdict struct {
	Drop       bool
	Dup        bool
	Delay      time.Duration // added latency for the frame itself
	DupDelay   time.Duration // added latency for the duplicate copy
	CorruptAt  int           // byte offset to flip; -1 = none
	CorruptXor byte          // non-zero flip mask
}

// Stats counts the impairments actually applied in one direction.
type Stats struct {
	Frames    int64
	Drops     int64
	Dups      int64
	Delayed   int64
	Reordered int64
	Corrupted int64
}

// Impairer is the decision engine: one per wrapped endpoint. Decide is
// safe for concurrent use; the per-direction frame counters serialize the
// decision indices, and every random draw derives from (seed, dir, index)
// alone, so the decision schedule is a pure function of the seed.
type Impairer struct {
	prof  atomic.Pointer[Profile]
	seed  uint64
	count [2]atomic.Uint64
	// nextFreeNs is the per-direction bandwidth serialization clock: the
	// elapsed-time at which the modeled link becomes idle again.
	nextFreeNs [2]atomic.Int64

	frames    [2]atomic.Int64
	drops     [2]atomic.Int64
	dups      [2]atomic.Int64
	delayed   [2]atomic.Int64
	reordered [2]atomic.Int64
	corrupted [2]atomic.Int64
}

// NewImpairer builds an engine for prof with the given seed. The profile is
// validated; an invalid profile panics (profiles from files go through
// Load, which returns the error instead).
func NewImpairer(prof Profile, seed uint64) *Impairer {
	if err := prof.Validate(); err != nil {
		panic(err)
	}
	im := &Impairer{seed: seed}
	im.prof.Store(&prof)
	return im
}

// SetProfile swaps the active profile; safe while traffic is flowing. The
// decision indices keep counting, so the swap does not restart the
// schedule. Scripted tests use this for ad-hoc transitions that a Plan
// cannot express (e.g. "heal when the test says so").
func (im *Impairer) SetProfile(prof Profile) {
	if err := prof.Validate(); err != nil {
		panic(err)
	}
	im.prof.Store(&prof)
}

// Profile returns the active profile.
func (im *Impairer) Profile() Profile { return *im.prof.Load() }

// Stats returns the per-direction impairment counters.
func (im *Impairer) Stats(dir Dir) Stats {
	return Stats{
		Frames:    im.frames[dir].Load(),
		Drops:     im.drops[dir].Load(),
		Dups:      im.dups[dir].Load(),
		Delayed:   im.delayed[dir].Load(),
		Reordered: im.reordered[dir].Load(),
		Corrupted: im.corrupted[dir].Load(),
	}
}

// splitmix64 is the same finalizer the simulator's RNG uses (sim.RNG), kept
// literal here so the schedule a seed produces never changes underneath the
// determinism tests.
func splitmix64(state uint64) (uint64, uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// draw is a tiny value-type random stream for one frame's decisions,
// seeded from (impairer seed, direction, frame index) so the schedule is
// order-independent: whichever goroutine asks first, frame k of direction d
// always gets the same verdict.
type draw struct{ state uint64 }

func (d *draw) next() uint64 {
	var v uint64
	d.state, v = splitmix64(d.state)
	return v
}

func (d *draw) f64() float64 { return float64(d.next()>>11) / (1 << 53) }

func (d *draw) duration(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(d.next() % uint64(max))
}

// Decide renders the verdict for the next frame in dir. elapsed is how long
// the profile has been running (wall time on the real stack, simulated time
// under the kernel) and selects the active Plan phase; size is the frame
// length in bytes (for bandwidth serialization and corruption offsets).
func (im *Impairer) Decide(dir Dir, elapsed time.Duration, size int) Verdict {
	idx := im.count[dir].Add(1) - 1
	im.frames[dir].Add(1)
	act := im.prof.Load().at(dir, elapsed)
	v := Verdict{CorruptAt: -1}
	if act.zero() {
		return v
	}
	d := draw{state: im.seed ^ (uint64(dir)+1)*0x9E3779B97F4A7C15 ^ idx*0xD1B54A32D192ED03}
	// One draw per impairment kind, always in the same order, whether or not
	// the kind is enabled — so enabling one impairment does not reshuffle
	// another's schedule.
	pDrop, pDup, pReorder, pCorrupt := d.f64(), d.f64(), d.f64(), d.f64()
	jitter := d.duration(time.Duration(act.Jitter))
	corruptPos, corruptMask := d.next(), byte(d.next())|1
	if pDrop < act.Drop {
		im.drops[dir].Add(1)
		v.Drop = true
		return v
	}
	v.Delay = time.Duration(act.Delay) + jitter
	if pReorder < act.Reorder {
		hold := time.Duration(act.ReorderDelay)
		if hold == 0 {
			hold = time.Millisecond
		}
		v.Delay += hold
		im.reordered[dir].Add(1)
	}
	if pDup < act.Dup {
		v.Dup = true
		v.DupDelay = v.Delay
		im.dups[dir].Add(1)
	}
	if pCorrupt < act.Corrupt && size > 0 {
		v.CorruptAt = int(corruptPos % uint64(size))
		v.CorruptXor = corruptMask
		im.corrupted[dir].Add(1)
	}
	if act.BandwidthBps > 0 && size > 0 {
		txNs := int64(size) * 8 * int64(time.Second) / act.BandwidthBps
		nowNs := elapsed.Nanoseconds()
		for {
			free := im.nextFreeNs[dir].Load()
			start := nowNs
			if free > start {
				start = free
			}
			if im.nextFreeNs[dir].CompareAndSwap(free, start+txNs) {
				v.Delay += time.Duration(start + txNs - nowNs)
				break
			}
		}
	}
	if v.Delay > 0 {
		im.delayed[dir].Add(1)
	}
	return v
}

// Schedule renders the first n decisions of dir for frames of the given
// size at elapsed 0, one per line — the determinism witness: the same
// (profile, seed) must produce the identical string on every run and
// platform. Bandwidth serialization is excluded (it is a function of real
// arrival times, not of the seed).
func Schedule(prof Profile, seed uint64, dir Dir, n, size int) string {
	p := prof
	for i := range p.Plan {
		// Neutralize time-dependent state so the dump stays pure.
		p.Plan[i].Out.BandwidthBps = 0
		p.Plan[i].In.BandwidthBps = 0
	}
	p.Out.BandwidthBps = 0
	p.In.BandwidthBps = 0
	im := NewImpairer(p, seed)
	var b strings.Builder
	for i := 0; i < n; i++ {
		v := im.Decide(dir, 0, size)
		fmt.Fprintf(&b, "%s %4d drop=%t dup=%t delay=%s dupdelay=%s corrupt=%d xor=%#x\n",
			dir, i, v.Drop, v.Dup, v.Delay, v.DupDelay, v.CorruptAt, v.CorruptXor)
	}
	return b.String()
}
