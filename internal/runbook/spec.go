// Package runbook is the declarative macro-scenario layer: a JSON runbook
// declares N simulated nodes, the links between them (each with its own
// faultnet impairment profile and scripted phase changes), workload
// schedules (open/closed-loop arrival, fan-out, diurnal ramps, hotspot
// skew), per-server admission policies, and a pass/fail assertions block —
// and Execute runs the whole scenario inside the discrete-event kernel
// (internal/sim) over a modeled Ethernet fabric (internal/ether), so the
// same runbook plus the same seed produces a byte-identical assertion
// report on every run. New scenarios are JSON files, not Go code;
// cmd/fireflysim turns a runbook's assertion outcome into an exit status,
// which is what makes the committed runbooks a CI-runnable scenario suite.
//
// The executor models RPC at the macro level — request frame, worker pool
// with a fixed service time, response frame, retransmission with backoff —
// rather than simulating the full Firefly protocol stack (internal/simstack
// does that for the paper's two-machine tables). The point here is topology and policy: what the tail looks like
// when a link loses 10% of frames, whether deadline shedding holds goodput
// where FIFO collapses, how a fan-in hotspot starves its neighbours.
//
// Admission is not modeled: each server offers, takes, observes and sheds
// through overload.Queue, the queue every real server drains, running on
// the kernel's virtual clock. What remains a model departs from the real
// stack in four ways:
//
//   - the client's retransmission timeout starts at RPCSpec.RTO and doubles
//     per retry, with no RTT estimator;
//   - a request or reply is one 23-byte xor-checked frame (frame.go), not
//     the Firefly packet layout with its fragmentation;
//   - the deadline budget travels in nanoseconds, where the real wire
//     floors it to whole milliseconds;
//   - the server discounts an arriving budget by 3× the reply's
//     transmission time as headroom for the trip back, besides the request
//     wire time it has already spent.
package runbook

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fireflyrpc/internal/faultnet"
	"fireflyrpc/internal/overload"
)

// Limits keep a mistyped runbook from requesting an unbounded simulation.
const (
	MaxNodes        = 64
	MaxDuration     = 10 * time.Minute // virtual
	MaxPayloadBytes = 1 << 20
	MaxOutstanding  = 10000
	MaxRatePerSec   = 10e6
)

// Duration re-exports faultnet's JSON-friendly duration ("5ms" or plain
// nanoseconds) so runbooks and impairment profiles share one spelling.
type Duration = faultnet.Duration

// Spec is a complete runbook. Parse rejects unknown fields, so typos in
// hand-written runbooks fail loudly instead of silently asserting nothing.
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Seed drives every random decision in the run (fault schedules,
	// Poisson arrivals, skewed target picks). Default 1.
	Seed uint64 `json:"seed,omitempty"`
	// Duration is the virtual length of the run.
	Duration Duration `json:"duration"`
	// Warmup, when positive, resets all metrics this far into the run so
	// assertions see steady state; calls started during warmup are never
	// counted.
	Warmup Duration `json:"warmup,omitempty"`

	Fabric    FabricSpec     `json:"fabric,omitempty"`
	RPC       RPCSpec        `json:"rpc,omitempty"`
	Nodes     []NodeSpec     `json:"nodes"`
	Links     []LinkSpec     `json:"links,omitempty"`
	Workloads []WorkloadSpec `json:"workloads"`
	Assert    Asserts        `json:"assert,omitempty"`
}

// FabricSpec selects the wire topology connecting the nodes.
type FabricSpec struct {
	// Kind is "switched" (default: a dedicated full-duplex-modeled segment
	// per node pair, like a datacenter switch) or "shared" (one classic
	// Ethernet segment all nodes contend on, the paper's topology).
	Kind string `json:"kind,omitempty"`
	// Mbps is the modeled bit rate per segment; default 10 (the paper's
	// Ethernet). A runbook modeling a modern fabric sets 1000+.
	Mbps float64 `json:"mbps,omitempty"`
}

// RPCSpec tunes the modeled client protocol engine.
type RPCSpec struct {
	// RTO is the initial retransmission timeout; default 10ms. It doubles
	// per retry up to RTOMax (default 500ms).
	RTO    Duration `json:"rto,omitempty"`
	RTOMax Duration `json:"rto_max,omitempty"`
	// MaxRetries bounds retransmissions per call; exhausting it fails the
	// call (counted under "failures"). Default 10.
	MaxRetries int `json:"max_retries,omitempty"`
}

// NodeSpec declares one simulated machine.
type NodeSpec struct {
	Name string `json:"name"`
	// Role is "client", "server", or "mixed" (both sends workloads and
	// serves calls).
	Role string `json:"role"`
	// Workers is the server's worker-pool width; default 1.
	Workers int `json:"workers,omitempty"`
	// Service is the fixed per-call handler time; default 100µs.
	Service Duration `json:"service,omitempty"`
	// ServiceJitter adds a uniform [0, jitter) draw per call.
	ServiceJitter Duration `json:"service_jitter,omitempty"`
	// Admission bounds the server's dispatch queue; zero capacity means an
	// unbounded FIFO queue with no shedding.
	Admission AdmissionSpec `json:"admission,omitempty"`
}

// AdmissionSpec mirrors internal/overload's configuration surface.
type AdmissionSpec struct {
	Policy   string `json:"policy,omitempty"` // fifo | lifo | deadline
	Capacity int    `json:"capacity,omitempty"`
}

func (a AdmissionSpec) policy() (overload.Policy, error) {
	if a.Policy == "" {
		return overload.FIFO, nil
	}
	return overload.ParsePolicy(a.Policy)
}

// LinkSpec impairs the traffic between two named nodes. Absent links are
// clean; a link only needs declaring to be impaired. AtoB governs frames
// from A to B, BtoA the reverse — the two directions of one faultnet
// profile. Plan phases replace both directions' impairments once the run
// reaches their After offset (a partition is a phase with drop 1 both
// ways; a later empty phase heals it).
type LinkSpec struct {
	A    string          `json:"a"`
	B    string          `json:"b"`
	AtoB faultnet.Impair `json:"a_to_b,omitempty"`
	BtoA faultnet.Impair `json:"b_to_a,omitempty"`
	Plan []LinkPhase     `json:"plan,omitempty"`
}

// LinkPhase is one timed transition of a link's impairments.
type LinkPhase struct {
	After Duration        `json:"after"`
	AtoB  faultnet.Impair `json:"a_to_b,omitempty"`
	BtoA  faultnet.Impair `json:"b_to_a,omitempty"`
}

// Profile renders the link as a faultnet profile: Out = A→B, In = B→A.
func (l LinkSpec) Profile() faultnet.Profile {
	p := faultnet.Profile{
		Name: l.A + "-" + l.B,
		Out:  l.AtoB,
		In:   l.BtoA,
	}
	for _, ph := range l.Plan {
		p.Plan = append(p.Plan, faultnet.Phase{After: ph.After, Out: ph.AtoB, In: ph.BtoA})
	}
	return p
}

// WorkloadSpec is one stream of calls from a client node.
type WorkloadSpec struct {
	Name   string `json:"name"`
	Client string `json:"client"`
	// Targets are the server nodes called; each call picks one (see Skew).
	Targets []string `json:"targets"`
	// Mode is "closed" (Outstanding concurrent call loops, each issuing
	// its next call when the previous resolves) or "open" (calls arrive on
	// a schedule regardless of completions).
	Mode string `json:"mode"`
	// Outstanding is the closed-loop fan-out width; default 1.
	Outstanding int `json:"outstanding,omitempty"`
	// Think delays each closed-loop caller between calls.
	Think Duration `json:"think,omitempty"`
	// RatePerSec is the open-loop arrival rate.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Arrival is the open-loop arrival process: "poisson" (default) or
	// "uniform" (fixed spacing).
	Arrival string `json:"arrival,omitempty"`
	// Phases re-schedule the open-loop rate over the run (diurnal ramps).
	Phases []WorkPhase `json:"phases,omitempty"`
	// Skew biases target selection Zipf-style: target i is picked with
	// probability proportional to 1/(i+1)^skew, so the first target is the
	// hotspot. Zero selects targets round-robin.
	Skew float64 `json:"skew,omitempty"`
	// ArgBytes / ResultBytes pad the request and response frames.
	ArgBytes    int `json:"arg_bytes,omitempty"`
	ResultBytes int `json:"result_bytes,omitempty"`
	// Timeout is the per-call deadline (also the budget carried on the
	// wire for deadline admission). Zero means no deadline: calls ride the
	// retransmission engine until MaxRetries.
	Timeout Duration `json:"timeout,omitempty"`
	// Hedge issues a backup copy of a still-unanswered call to a second
	// target after this delay (tail-tolerant requests, as in the cluster
	// layer). The first response wins; the hedged call is excluded from the
	// stage identity since its reply may come from either server. Requires
	// at least two targets. Zero disables hedging.
	Hedge Duration `json:"hedge,omitempty"`
	// OverloadBackoff delays a closed-loop caller after a wire-level
	// rejection; default Timeout/2 (or 1ms when no timeout).
	OverloadBackoff Duration `json:"overload_backoff,omitempty"`
	// Start/Stop bound the workload's active window inside the run; a zero
	// Stop runs to the end.
	Start Duration `json:"start,omitempty"`
	Stop  Duration `json:"stop,omitempty"`
}

// WorkPhase is one open-loop rate transition.
type WorkPhase struct {
	After      Duration `json:"after"`
	RatePerSec float64  `json:"rate_per_sec"`
}

// Asserts is the pass/fail block: every bound present must hold for the
// run to pass, and cmd/fireflysim turns the outcome into its exit status.
type Asserts struct {
	Workloads map[string]WorkloadAssert `json:"workloads,omitempty"`
	Nodes     map[string]NodeAssert     `json:"nodes,omitempty"`
	// StageIdentityTolPct bounds the model's stage-accounting identity:
	// over calls completed without retransmission, the summed per-stage
	// times (request wire, queue wait, service, response wire) must match
	// summed end-to-end latency within this percentage. The executor's
	// stamps come independently from both sides of each call, so a drift
	// here means the executor is mis-attributing time.
	StageIdentityTolPct *float64 `json:"stage_identity_tol_pct,omitempty"`
}

// WorkloadAssert bounds one workload's steady-state results. Pointer
// fields distinguish "absent" from an explicit zero bound.
type WorkloadAssert struct {
	P50MaxUs         *float64 `json:"p50_max_us,omitempty"`
	P95MaxUs         *float64 `json:"p95_max_us,omitempty"`
	P99MaxUs         *float64 `json:"p99_max_us,omitempty"`
	P999MaxUs        *float64 `json:"p999_max_us,omitempty"`
	GoodputMinPerSec *float64 `json:"goodput_min_per_sec,omitempty"`
	MinCompleted     *int64   `json:"min_completed,omitempty"`
	MaxTimeouts      *int64   `json:"max_timeouts,omitempty"`
	MinTimeouts      *int64   `json:"min_timeouts,omitempty"`
	MaxFailures      *int64   `json:"max_failures,omitempty"`
	MinFailures      *int64   `json:"min_failures,omitempty"`
	MaxOverloads     *int64   `json:"max_overloads,omitempty"`
	MinRetransmits   *int64   `json:"min_retransmits,omitempty"`
	MaxRetransmits   *int64   `json:"max_retransmits,omitempty"`
	MinHedges        *int64   `json:"min_hedges,omitempty"`
	MaxHedges        *int64   `json:"max_hedges,omitempty"`
}

// NodeAssert bounds one server node's admission behaviour.
type NodeAssert struct {
	MinShed       *int64 `json:"min_shed,omitempty"`
	MaxShed       *int64 `json:"max_shed,omitempty"`
	MaxQueueDepth *int64 `json:"max_queue_depth,omitempty"`
}

// Parse decodes a runbook, rejecting unknown fields and trailing garbage,
// then validates it.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("runbook: %v", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err == nil || len(trailing) > 0 {
		return nil, fmt.Errorf("runbook: trailing data after runbook object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and parses a runbook file; a missing name defaults to the
// file's base name.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if s.Name == "" {
		s.Name = strings.TrimSuffix(filepath.Base(path), ".json")
	}
	return s, nil
}

// Validate runs the semantic checks: every reference resolves to a declared
// node with a compatible role, impairment profiles are in range, and
// assertion bounds are sane. It is deliberately strict — a runbook that
// validates is a runbook the executor can run.
func (s *Spec) Validate() error {
	if time.Duration(s.Duration) <= 0 {
		return fmt.Errorf("runbook: duration must be positive")
	}
	if time.Duration(s.Duration) > MaxDuration {
		return fmt.Errorf("runbook: duration %v exceeds the %v cap", time.Duration(s.Duration), MaxDuration)
	}
	if s.Warmup < 0 || time.Duration(s.Warmup) >= time.Duration(s.Duration) {
		return fmt.Errorf("runbook: warmup must be in [0, duration)")
	}
	switch s.Fabric.Kind {
	case "", "switched", "shared":
	default:
		return fmt.Errorf("runbook: fabric.kind %q (want switched or shared)", s.Fabric.Kind)
	}
	if s.Fabric.Mbps < 0 {
		return fmt.Errorf("runbook: fabric.mbps negative")
	}
	if s.RPC.RTO < 0 || s.RPC.RTOMax < 0 || s.RPC.MaxRetries < 0 {
		return fmt.Errorf("runbook: rpc settings must be non-negative")
	}

	if len(s.Nodes) == 0 {
		return fmt.Errorf("runbook: no nodes declared")
	}
	if len(s.Nodes) > MaxNodes {
		return fmt.Errorf("runbook: %d nodes exceeds the %d cap", len(s.Nodes), MaxNodes)
	}
	nodes := make(map[string]*NodeSpec, len(s.Nodes))
	for i := range s.Nodes {
		n := &s.Nodes[i]
		if n.Name == "" {
			return fmt.Errorf("runbook: nodes[%d] has no name", i)
		}
		if _, dup := nodes[n.Name]; dup {
			return fmt.Errorf("runbook: duplicate node %q", n.Name)
		}
		switch n.Role {
		case "client", "server", "mixed":
		default:
			return fmt.Errorf("runbook: node %q role %q (want client, server, or mixed)", n.Name, n.Role)
		}
		if n.Workers < 0 || n.Service < 0 || n.ServiceJitter < 0 {
			return fmt.Errorf("runbook: node %q has a negative worker count or service time", n.Name)
		}
		if n.Role == "client" && (n.Workers != 0 || n.Service != 0 || n.Admission != (AdmissionSpec{})) {
			return fmt.Errorf("runbook: node %q is a client but declares server settings", n.Name)
		}
		if _, err := n.Admission.policy(); err != nil {
			return fmt.Errorf("runbook: node %q: %v", n.Name, err)
		}
		if n.Admission.Capacity < 0 {
			return fmt.Errorf("runbook: node %q admission.capacity negative", n.Name)
		}
		if n.Admission.Policy != "" && n.Admission.Capacity == 0 {
			return fmt.Errorf("runbook: node %q sets admission.policy without admission.capacity", n.Name)
		}
		nodes[n.Name] = n
	}

	seenLink := make(map[string]bool)
	for i := range s.Links {
		l := &s.Links[i]
		if nodes[l.A] == nil {
			return fmt.Errorf("runbook: links[%d] references undeclared node %q", i, l.A)
		}
		if nodes[l.B] == nil {
			return fmt.Errorf("runbook: links[%d] references undeclared node %q", i, l.B)
		}
		if l.A == l.B {
			return fmt.Errorf("runbook: links[%d] connects %q to itself", i, l.A)
		}
		key := l.A + "\x00" + l.B
		if l.B < l.A {
			key = l.B + "\x00" + l.A
		}
		if seenLink[key] {
			return fmt.Errorf("runbook: duplicate link between %q and %q", l.A, l.B)
		}
		seenLink[key] = true
		p := l.Profile()
		if err := p.Validate(); err != nil {
			return fmt.Errorf("runbook: links[%d] (%s): %v", i, p.Name, err)
		}
	}

	if len(s.Workloads) == 0 {
		return fmt.Errorf("runbook: no workloads declared")
	}
	seenWl := make(map[string]bool)
	for i := range s.Workloads {
		w := &s.Workloads[i]
		if w.Name == "" {
			return fmt.Errorf("runbook: workloads[%d] has no name", i)
		}
		if seenWl[w.Name] {
			return fmt.Errorf("runbook: duplicate workload %q", w.Name)
		}
		seenWl[w.Name] = true
		cl := nodes[w.Client]
		if cl == nil {
			return fmt.Errorf("runbook: workload %q client references undeclared node %q", w.Name, w.Client)
		}
		if cl.Role == "server" {
			return fmt.Errorf("runbook: workload %q client %q has role server", w.Name, w.Client)
		}
		if len(w.Targets) == 0 {
			return fmt.Errorf("runbook: workload %q has no targets", w.Name)
		}
		for _, tgt := range w.Targets {
			tn := nodes[tgt]
			if tn == nil {
				return fmt.Errorf("runbook: workload %q targets undeclared node %q", w.Name, tgt)
			}
			if tn.Role == "client" {
				return fmt.Errorf("runbook: workload %q target %q has role client", w.Name, tgt)
			}
		}
		switch w.Mode {
		case "closed":
			if w.Outstanding < 0 || w.Outstanding > MaxOutstanding {
				return fmt.Errorf("runbook: workload %q outstanding must be in [0, %d]", w.Name, MaxOutstanding)
			}
			if w.RatePerSec != 0 || len(w.Phases) != 0 || w.Arrival != "" {
				return fmt.Errorf("runbook: workload %q is closed-loop but sets open-loop arrival fields", w.Name)
			}
		case "open":
			if w.RatePerSec <= 0 || w.RatePerSec > MaxRatePerSec {
				return fmt.Errorf("runbook: workload %q rate_per_sec must be in (0, %g]", w.Name, MaxRatePerSec)
			}
			switch w.Arrival {
			case "", "poisson", "uniform":
			default:
				return fmt.Errorf("runbook: workload %q arrival %q (want poisson or uniform)", w.Name, w.Arrival)
			}
			if w.Outstanding != 0 || w.Think != 0 {
				return fmt.Errorf("runbook: workload %q is open-loop but sets closed-loop fields", w.Name)
			}
			for j, ph := range w.Phases {
				if ph.After <= 0 || ph.RatePerSec <= 0 || ph.RatePerSec > MaxRatePerSec {
					return fmt.Errorf("runbook: workload %q phases[%d] needs positive after and rate", w.Name, j)
				}
			}
		default:
			return fmt.Errorf("runbook: workload %q mode %q (want closed or open)", w.Name, w.Mode)
		}
		if w.Skew < 0 {
			return fmt.Errorf("runbook: workload %q skew negative", w.Name)
		}
		if w.ArgBytes < 0 || w.ArgBytes > MaxPayloadBytes || w.ResultBytes < 0 || w.ResultBytes > MaxPayloadBytes {
			return fmt.Errorf("runbook: workload %q payload bytes must be in [0, %d]", w.Name, MaxPayloadBytes)
		}
		if w.Timeout < 0 || w.Think < 0 || w.OverloadBackoff < 0 || w.Start < 0 || w.Stop < 0 || w.Hedge < 0 {
			return fmt.Errorf("runbook: workload %q has a negative duration", w.Name)
		}
		if w.Hedge > 0 && len(w.Targets) < 2 {
			return fmt.Errorf("runbook: workload %q hedges but has fewer than two targets", w.Name)
		}
		if w.Stop != 0 && w.Stop <= w.Start {
			return fmt.Errorf("runbook: workload %q stop must be after start", w.Name)
		}
	}

	for name, wa := range s.Assert.Workloads {
		if !seenWl[name] {
			return fmt.Errorf("runbook: assert.workloads references undeclared workload %q", name)
		}
		if err := wa.validate(name); err != nil {
			return err
		}
	}
	for name, na := range s.Assert.Nodes {
		n := nodes[name]
		if n == nil {
			return fmt.Errorf("runbook: assert.nodes references undeclared node %q", name)
		}
		if n.Role == "client" {
			return fmt.Errorf("runbook: assert.nodes[%q] targets a client node (shed bounds need a server)", name)
		}
		if err := na.validate(name); err != nil {
			return err
		}
	}
	if tol := s.Assert.StageIdentityTolPct; tol != nil && (*tol < 0 || *tol > 100) {
		return fmt.Errorf("runbook: assert.stage_identity_tol_pct must be in [0, 100]")
	}
	return nil
}

func (wa WorkloadAssert) validate(name string) error {
	quantiles := []struct {
		field string
		v     *float64
	}{
		{"p50_max_us", wa.P50MaxUs}, {"p95_max_us", wa.P95MaxUs},
		{"p99_max_us", wa.P99MaxUs}, {"p999_max_us", wa.P999MaxUs},
	}
	prev := 0.0
	prevField := ""
	for _, q := range quantiles {
		if q.v == nil {
			continue
		}
		if *q.v < 0 {
			return fmt.Errorf("runbook: assert.workloads[%q].%s negative", name, q.field)
		}
		if prevField != "" && *q.v < prev {
			return fmt.Errorf("runbook: assert.workloads[%q].%s (%g) below %s (%g); quantile bounds must be non-decreasing",
				name, q.field, *q.v, prevField, prev)
		}
		prev, prevField = *q.v, q.field
	}
	if wa.GoodputMinPerSec != nil && *wa.GoodputMinPerSec < 0 {
		return fmt.Errorf("runbook: assert.workloads[%q].goodput_min_per_sec negative", name)
	}
	counts := []struct {
		field string
		v     *int64
	}{
		{"min_completed", wa.MinCompleted}, {"max_timeouts", wa.MaxTimeouts},
		{"min_timeouts", wa.MinTimeouts}, {"max_failures", wa.MaxFailures},
		{"min_failures", wa.MinFailures}, {"max_overloads", wa.MaxOverloads},
		{"min_retransmits", wa.MinRetransmits}, {"max_retransmits", wa.MaxRetransmits},
		{"min_hedges", wa.MinHedges}, {"max_hedges", wa.MaxHedges},
	}
	for _, c := range counts {
		if c.v != nil && *c.v < 0 {
			return fmt.Errorf("runbook: assert.workloads[%q].%s negative", name, c.field)
		}
	}
	pairs := []struct {
		minF, maxF string
		min, max   *int64
	}{
		{"min_timeouts", "max_timeouts", wa.MinTimeouts, wa.MaxTimeouts},
		{"min_failures", "max_failures", wa.MinFailures, wa.MaxFailures},
		{"min_retransmits", "max_retransmits", wa.MinRetransmits, wa.MaxRetransmits},
		{"min_hedges", "max_hedges", wa.MinHedges, wa.MaxHedges},
	}
	for _, p := range pairs {
		if p.min != nil && p.max != nil && *p.min > *p.max {
			return fmt.Errorf("runbook: assert.workloads[%q].%s (%d) exceeds %s (%d)",
				name, p.minF, *p.min, p.maxF, *p.max)
		}
	}
	return nil
}

func (na NodeAssert) validate(name string) error {
	for _, c := range []struct {
		field string
		v     *int64
	}{{"min_shed", na.MinShed}, {"max_shed", na.MaxShed}, {"max_queue_depth", na.MaxQueueDepth}} {
		if c.v != nil && *c.v < 0 {
			return fmt.Errorf("runbook: assert.nodes[%q].%s negative", name, c.field)
		}
	}
	if na.MinShed != nil && na.MaxShed != nil && *na.MinShed > *na.MaxShed {
		return fmt.Errorf("runbook: assert.nodes[%q].min_shed (%d) exceeds max_shed (%d)",
			name, *na.MinShed, *na.MaxShed)
	}
	return nil
}

// defaults returns the spec's effective tunables.
func (s *Spec) seed() uint64 {
	if s.Seed == 0 {
		return 1
	}
	return s.Seed
}

func (s *Spec) mbps() float64 {
	if s.Fabric.Mbps == 0 {
		return 10
	}
	return s.Fabric.Mbps
}

func (s *Spec) rto() time.Duration {
	if s.RPC.RTO == 0 {
		return 10 * time.Millisecond
	}
	return time.Duration(s.RPC.RTO)
}

func (s *Spec) rtoMax() time.Duration {
	if s.RPC.RTOMax == 0 {
		return 500 * time.Millisecond
	}
	return time.Duration(s.RPC.RTOMax)
}

func (s *Spec) maxRetries() int {
	if s.RPC.MaxRetries == 0 {
		return 10
	}
	return s.RPC.MaxRetries
}

func (n *NodeSpec) service() time.Duration {
	if n.Service == 0 {
		return 100 * time.Microsecond
	}
	return time.Duration(n.Service)
}

func (n *NodeSpec) workers() int {
	if n.Workers == 0 {
		return 1
	}
	return n.Workers
}

func (w *WorkloadSpec) outstanding() int {
	if w.Outstanding == 0 {
		return 1
	}
	return w.Outstanding
}

func (w *WorkloadSpec) backoff() time.Duration {
	if w.OverloadBackoff != 0 {
		return time.Duration(w.OverloadBackoff)
	}
	if w.Timeout != 0 {
		return time.Duration(w.Timeout) / 2
	}
	return time.Millisecond
}
