package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"fireflyrpc/internal/clock"
	"fireflyrpc/internal/registry"
)

// Resolver yields the current replica address set for a service. Resolve is
// called on the balancer's call path, so implementations must make the
// common case cheap: the registry-backed resolver answers from a cached set
// and refreshes asynchronously.
type Resolver interface {
	Resolve(ctx context.Context) ([]string, error)
}

// Static is a fixed replica set — the resolver for tests, benchmarks, and
// deployments with out-of-band configuration.
type Static []string

// Resolve returns the set unchanged.
func (s Static) Resolve(context.Context) ([]string, error) { return s, nil }

// RegistryResolver resolves a service name through a registry.Client's
// LookupAll with client-side caching: a Resolve inside the TTL is a mutex
// and a slice read; the first Resolve past the TTL still returns the cached
// set immediately but kicks exactly one background re-resolve, so a slow or
// briefly unreachable directory never stalls the call path once a set is
// known. Only the very first Resolve (no cache yet) is synchronous.
type RegistryResolver struct {
	service string
	ttl     time.Duration
	clk     clock.Clock

	// reg is only ever used under resolveMu: registry.Client (like every
	// core.Client user) is not safe for concurrent calls.
	resolveMu sync.Mutex
	reg       *registry.Client

	mu      sync.Mutex
	addrs   []string
	expires time.Time

	refreshing atomic.Bool
	resolves   atomic.Int64 // directory round trips performed
	errors     atomic.Int64 // round trips that failed
}

// NewRegistryResolver caches LookupAll(service) results for ttl (default
// 1s) before re-resolving in the background.
func NewRegistryResolver(reg *registry.Client, service string, ttl time.Duration) *RegistryResolver {
	if ttl <= 0 {
		ttl = time.Second
	}
	return &RegistryResolver{service: service, ttl: ttl, clk: clock.Wall, reg: reg}
}

// Resolve returns the live replica set, honouring the cache TTL.
func (r *RegistryResolver) Resolve(ctx context.Context) ([]string, error) {
	r.mu.Lock()
	addrs, exp := r.addrs, r.expires
	r.mu.Unlock()
	now := r.clk.Now()
	if len(addrs) > 0 {
		if now.Before(exp) {
			return addrs, nil
		}
		// Stale: serve the cached set, refresh off the call path. The CAS
		// admits one refresher at a time.
		if r.refreshing.CompareAndSwap(false, true) {
			go func() {
				defer r.refreshing.Store(false)
				rctx, cancel := context.WithTimeout(context.Background(), r.ttl)
				defer cancel()
				r.lookup(rctx)
			}()
		}
		return addrs, nil
	}
	// Nothing cached yet: the caller waits for the directory once.
	return r.lookup(ctx)
}

// lookup performs one directory round trip and installs the result.
func (r *RegistryResolver) lookup(ctx context.Context) ([]string, error) {
	r.resolveMu.Lock()
	defer r.resolveMu.Unlock()
	r.resolves.Add(1)
	addrs, err := r.reg.LookupAllCtx(ctx, r.service)
	if err != nil {
		r.errors.Add(1)
		return nil, err
	}
	r.mu.Lock()
	r.addrs = addrs
	r.expires = r.clk.Now().Add(r.ttl)
	r.mu.Unlock()
	return addrs, nil
}

// ResolverStats reports a RegistryResolver's directory traffic.
type ResolverStats struct {
	Resolves int64 `json:"resolves"`
	Errors   int64 `json:"errors"`
}

// Stats snapshots the resolver's counters.
func (r *RegistryResolver) Stats() ResolverStats {
	return ResolverStats{Resolves: r.resolves.Load(), Errors: r.errors.Load()}
}
