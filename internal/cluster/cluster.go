// Package cluster is the replica-set layer above the packet-exchange
// protocol: one logical service served by N interchangeable servers. It
// composes machinery that already exists below it — registry leases name
// the replica set (LookupAll), per-replica latency histograms from
// internal/stats drive power-of-two-choices placement with outlier
// ejection, the wire's TypeCancel lets a hedged request's loser be
// abandoned server-side, and FlagBudget carries the caller's remaining
// deadline on every issued copy — into a client that keeps tail latency
// under control when one replica is slow or the network is lossy, the
// "tail at scale" playbook priced against this repo's measured tables.
//
// The hedging discipline: a call is issued to the replica P2C prefers; if
// no result arrives within the configured quantile of that replica's own
// latency distribution (default p95), one backup is issued to a different
// replica. The first result wins; the loser is cancelled immediately,
// which rides the existing cancellation path (a TypeCancel packet) so the
// losing server frees the call's retained state instead of finishing work
// nobody will read. Hedged calls must therefore be idempotent reads —
// writes take the Fanout path, which never hedges (the
// hedge-never-double-commits invariant in DESIGN.md).
//
// One mechanism issues every copy: core.Client.Go on the caller's
// goroutine, then Await there (settle), or Await with a cancelled context
// to cancel and reap a copy nobody needs (abandon). Call, its hedge and
// Fanout start no goroutines, and each replica needs only one
// core.Client, whose per-call slots let concurrent callers share it.
package cluster

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"fireflyrpc/internal/clock"
	"fireflyrpc/internal/core"
	"fireflyrpc/internal/stats"
	"fireflyrpc/internal/transport"
)

// Errors.
var (
	ErrNoReplicas = errors.New("cluster: no live replicas")
)

// HedgeConfig tunes the backup-request policy.
type HedgeConfig struct {
	// Enabled turns hedging on for Call. Fanout never hedges.
	Enabled bool
	// Quantile of the picked replica's own latency distribution to wait
	// before issuing the backup; default 0.95.
	Quantile float64
	// Min/Max clamp the quantile-derived delay; defaults 200µs / 50ms.
	// Until a replica has histWarmup samples the delay is Max, so a cold
	// client does not hedge-storm.
	Min, Max time.Duration
	// After, when positive, is a fixed hedge delay overriding the
	// quantile machinery (useful in tests and benchmarks).
	After time.Duration
}

// Config assembles a cluster client.
type Config struct {
	// Node is the caller endpoint; every replica binding shares its Conn.
	Node *core.Node
	// Resolver names the replica set (registry-backed or Static).
	Resolver Resolver
	// ParseAddr converts a resolved address string into a transport
	// address (transport.ResolveUDPAddr, transport.AddrOf for the
	// exchange, ...).
	ParseAddr func(string) (transport.Addr, error)
	// Interface identity of the replicated service.
	Iface   string
	Version uint32

	Hedge HedgeConfig
	// EjectAfter consecutive failures mark a replica as an outlier and
	// P2C skips it for EjectFor; defaults 3 and 1s. Ejection is advisory:
	// when every replica is ejected the balancer uses them anyway.
	EjectAfter int
	EjectFor   time.Duration
	// Seed drives the pick randomness deterministically; 0 seeds from 1.
	Seed uint64
}

const histWarmup = 16 // samples before a replica's quantiles are trusted

// pickQuantile is the latency quantile P2C compares. Deliberately above
// the median: a replica whose tail has collapsed (retransmission storms,
// saturated worker pool) loses the comparison even while its median is
// still healthy.
const pickQuantile = 0.90

// replica is the per-server state: one core.Client on a binding (every
// copy issued to the replica is a Go on it, from whichever goroutine, each
// in its own per-call slot), an always-on latency histogram (proto's
// per-peer histograms are tracing-gated; the balancer needs its own), and
// the pick/ejection accounting.
type replica struct {
	addr string
	cl   *core.Client
	hist *stats.Hist

	picks        atomic.Int64
	wins         atomic.Int64
	failures     atomic.Int64
	ejections    atomic.Int64
	consecFails  atomic.Int32
	ejectedUntil atomic.Int64 // unix nanos; 0 = live
}

func (r *replica) ejected(now time.Time) bool {
	return r.ejectedUntil.Load() > now.UnixNano()
}

// Client is the replica-set caller: resolve, pick, (maybe) hedge.
type Client struct {
	cfg Config
	clk clock.Clock // accounting, ejection and the hedge timer

	mu       sync.RWMutex
	replicas []*replica
	byAddr   map[string]*replica

	rng atomic.Uint64

	calls           atomic.Int64 // logical calls through Call
	issued          atomic.Int64 // copies actually put on the wire
	fanouts         atomic.Int64 // logical Fanout operations
	hedgesFired     atomic.Int64
	hedgesWon       atomic.Int64 // backup finished first
	hedgesCancelled atomic.Int64 // cancel sent to a hedged call's loser
}

// New builds a cluster client and performs the initial resolve.
func New(ctx context.Context, cfg Config) (*Client, error) {
	if cfg.Node == nil || cfg.Resolver == nil || cfg.ParseAddr == nil {
		return nil, errors.New("cluster: Config needs Node, Resolver, and ParseAddr")
	}
	if cfg.Hedge.Quantile <= 0 || cfg.Hedge.Quantile > 1 {
		cfg.Hedge.Quantile = 0.95
	}
	if cfg.Hedge.Min <= 0 {
		cfg.Hedge.Min = 200 * time.Microsecond
	}
	if cfg.Hedge.Max <= 0 {
		cfg.Hedge.Max = 50 * time.Millisecond
	}
	if cfg.EjectAfter <= 0 {
		cfg.EjectAfter = 3
	}
	if cfg.EjectFor <= 0 {
		cfg.EjectFor = time.Second
	}
	c := &Client{cfg: cfg, clk: clock.Wall, byAddr: make(map[string]*replica)}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	c.rng.Store(seed)
	if _, err := c.resolve(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// resolve refreshes the replica set from the resolver, keeping the
// accumulated state (client, histogram, counters) of every address
// that persists across refreshes.
func (c *Client) resolve(ctx context.Context) ([]*replica, error) {
	addrs, err := c.cfg.Resolver.Resolve(ctx)
	if err != nil {
		// Resolution failure with a known set: keep serving it (the
		// registry's lease design already tolerates a flaky directory).
		c.mu.RLock()
		cur := c.replicas
		c.mu.RUnlock()
		if len(cur) > 0 {
			return cur, nil
		}
		return nil, err
	}
	if len(addrs) == 0 {
		return nil, ErrNoReplicas
	}
	c.mu.RLock()
	same := len(addrs) == len(c.replicas)
	if same {
		for i, a := range addrs {
			if c.replicas[i].addr != a {
				same = false
				break
			}
		}
	}
	cur := c.replicas
	c.mu.RUnlock()
	if same {
		return cur, nil
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	next := make([]*replica, 0, len(addrs))
	nextBy := make(map[string]*replica, len(addrs))
	for _, a := range addrs {
		if r := c.byAddr[a]; r != nil {
			next = append(next, r)
			nextBy[a] = r
			continue
		}
		ta, err := c.cfg.ParseAddr(a)
		if err != nil {
			continue // a malformed entry must not poison the whole set
		}
		r := &replica{
			addr: a,
			cl:   c.cfg.Node.Bind(ta, c.cfg.Iface, c.cfg.Version).NewClient(),
			hist: new(stats.Hist),
		}
		next = append(next, r)
		nextBy[a] = r
	}
	if len(next) == 0 {
		return nil, ErrNoReplicas
	}
	c.replicas = next
	c.byAddr = nextBy
	return next, nil
}

// rand64 is a lock-free splitmix64 stream: deterministic under a fixed
// seed and sequential use, and safely usable from concurrent callers.
func (c *Client) rand64() uint64 {
	x := c.rng.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// better compares two replicas for P2C: prefer the one with the lower
// pickQuantile latency; a replica still inside its histogram warmup is
// preferred outright (explore before exploit); ties fall to fewer picks.
func better(a, b *replica) *replica {
	na, qa := a.hist.Quick(pickQuantile)
	nb, qb := b.hist.Quick(pickQuantile)
	switch {
	case na < histWarmup && nb >= histWarmup:
		return a
	case nb < histWarmup && na >= histWarmup:
		return b
	case na < histWarmup && nb < histWarmup:
		// Both cold: spread the warmup load evenly.
	case qa != qb:
		if qa < qb {
			return a
		}
		return b
	}
	if a.picks.Load() <= b.picks.Load() {
		return a
	}
	return b
}

// pick selects a replica by power-of-two-choices over the live (non-
// ejected) set, excluding `not` (the hedge's primary). Ejection is
// advisory: with nothing live the ejected replicas are considered anyway.
func (c *Client) pick(reps []*replica, not *replica) *replica {
	now := c.clk.Now()
	// Gather candidates without allocating in the common small-N case.
	var buf [8]*replica
	cand := buf[:0]
	for _, r := range reps {
		if r != not && !r.ejected(now) {
			cand = append(cand, r)
		}
	}
	if len(cand) == 0 {
		for _, r := range reps {
			if r != not {
				cand = append(cand, r)
			}
		}
	}
	var chosen *replica
	switch len(cand) {
	case 0:
		return nil
	case 1:
		chosen = cand[0]
	default:
		x := c.rand64()
		n := uint64(len(cand))
		i := x % n
		j := (x >> 32) % (n - 1)
		if j >= i {
			j++
		}
		chosen = better(cand[i], cand[j])
	}
	chosen.picks.Add(1)
	return chosen
}

// account records one issued copy's outcome against its replica.
func (c *Client) account(r *replica, start time.Time, err error) {
	if err == nil {
		r.hist.Observe(c.clk.Now().Sub(start))
		r.wins.Add(1)
		r.consecFails.Store(0)
		return
	}
	if errors.Is(err, context.Canceled) {
		return // our own hedge cancellation, not the replica's fault
	}
	r.failures.Add(1)
	if int(r.consecFails.Add(1)) >= c.cfg.EjectAfter {
		r.consecFails.Store(0)
		r.ejections.Add(1)
		r.ejectedUntil.Store(c.clk.Now().Add(c.cfg.EjectFor).UnixNano())
	}
}

// hedgeDelay derives the backup delay from the primary's own latency
// distribution: the configured quantile, clamped to [Min, Max], with Max
// standing in until the histogram has warmed up.
func (c *Client) hedgeDelay(r *replica) time.Duration {
	if c.cfg.Hedge.After > 0 {
		return c.cfg.Hedge.After
	}
	n, q := r.hist.Quick(c.cfg.Hedge.Quantile)
	if n < histWarmup {
		return c.cfg.Hedge.Max
	}
	if q < c.cfg.Hedge.Min {
		return c.cfg.Hedge.Min
	}
	if q > c.cfg.Hedge.Max {
		return c.cfg.Hedge.Max
	}
	return q
}

// ReplicaStats is one replica's snapshot for the debug surface.
type ReplicaStats struct {
	Addr      string  `json:"addr"`
	Picks     int64   `json:"picks"`
	Wins      int64   `json:"wins"`
	Failures  int64   `json:"failures"`
	Ejections int64   `json:"ejections"`
	Ejected   bool    `json:"ejected"`
	N         int64   `json:"n"`
	P50Us     float64 `json:"p50_us"`
	P95Us     float64 `json:"p95_us"`
	P99Us     float64 `json:"p99_us"`
}

// Stats is the whole client's snapshot.
type Stats struct {
	Service         string         `json:"service"`
	Replicas        []ReplicaStats `json:"replicas"`
	Calls           int64          `json:"calls"`
	Issued          int64          `json:"issued"`
	Fanouts         int64          `json:"fanouts"`
	HedgesFired     int64          `json:"hedges_fired"`
	HedgesWon       int64          `json:"hedges_won"`
	HedgesCancelled int64          `json:"hedges_cancelled"`
}

// Stats snapshots the balancer. Safe to call concurrently with traffic.
func (c *Client) Stats() Stats {
	c.mu.RLock()
	reps := c.replicas
	c.mu.RUnlock()
	s := Stats{
		Service:         c.cfg.Iface,
		Calls:           c.calls.Load(),
		Issued:          c.issued.Load(),
		Fanouts:         c.fanouts.Load(),
		HedgesFired:     c.hedgesFired.Load(),
		HedgesWon:       c.hedgesWon.Load(),
		HedgesCancelled: c.hedgesCancelled.Load(),
	}
	now := c.clk.Now()
	for _, r := range reps {
		snap := r.hist.Snapshot()
		sum := snap.Summarize()
		s.Replicas = append(s.Replicas, ReplicaStats{
			Addr:      r.addr,
			Picks:     r.picks.Load(),
			Wins:      r.wins.Load(),
			Failures:  r.failures.Load(),
			Ejections: r.ejections.Load(),
			Ejected:   r.ejected(now),
			N:         sum.N,
			P50Us:     sum.P50Us,
			P95Us:     sum.P95Us,
			P99Us:     sum.P99Us,
		})
	}
	return s
}

// Addrs returns the current replica address set (primarily for tests and
// the debug surface).
func (c *Client) Addrs() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, len(c.replicas))
	for i, r := range c.replicas {
		out[i] = r.addr
	}
	return out
}
