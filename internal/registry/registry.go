// Package registry provides the binding machinery the paper's fast path
// presupposes: §3.1.1 begins "assuming that binding to a suitable remote
// instance of the interface has already occurred". Cedar RPC used Grapevine
// for this; here the directory is itself a fireflyrpc service, so the
// system is self-hosting: servers Register their exported interfaces under
// names, and callers Lookup a name to obtain the address to bind to.
//
// A name holds a SET of addresses, each with its own lease: N replicas of
// one service register the same name concurrently and age out
// independently, in the style of a lease. Lookup returns one live address
// (the most recently refreshed, so the single-address callers of earlier
// PRs keep their semantics); LookupAll returns the whole live replica set,
// which is what internal/cluster's resolver consumes. Re-registration
// refreshes an address's lease; Lease keeps a registration alive from a
// background refresher.
package registry

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"fireflyrpc/internal/core"
	"fireflyrpc/internal/marshal"
	"fireflyrpc/internal/transport"
)

// Interface identity of the directory service itself.
const (
	Name    = "BindingRegistry"
	Version = 1
)

// Procedure identifiers.
const (
	procRegister  = 1 // Register(name, addr: Text; ttlSeconds: CARDINAL)
	procLookup    = 2 // Lookup(name: Text): Text  ("" if absent)
	procList      = 3 // List(prefix: Text): Text  (newline-joined names)
	procDeregist  = 4 // Deregister(name: Text)  (removes every address)
	procLookupAll = 5 // LookupAll(name: Text): Text  (newline-joined addrs)
	procDeregAddr = 6 // DeregisterAddr(name, addr: Text)
)

// Errors.
var (
	ErrNotFound = errors.New("registry: no such binding")
)

// Server is the directory: a map of service name → set of transport
// addresses, each address carrying its own lease-style expiry.
type Server struct {
	mu      sync.Mutex
	entries map[string]map[string]time.Time // name → addr → lease expiry
	clock   func() time.Time
}

// NewServer creates an empty directory.
func NewServer() *Server {
	return &Server{entries: make(map[string]map[string]time.Time), clock: time.Now}
}

// register records or refreshes one address's lease under name. Distinct
// addresses accumulate — N replicas registering one name concurrently each
// get their own lease instead of overwriting each other.
func (s *Server) register(name, addr string, ttl time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ttl <= 0 {
		ttl = 5 * time.Minute
	}
	set := s.entries[name]
	if set == nil {
		set = make(map[string]time.Time)
		s.entries[name] = set
	}
	set[addr] = s.clock().Add(ttl)
}

// prune drops name's expired leases (and the name itself once empty),
// returning the surviving set. Callers hold s.mu.
func (s *Server) prune(name string) map[string]time.Time {
	set := s.entries[name]
	if set == nil {
		return nil
	}
	now := s.clock()
	for addr, exp := range set {
		if now.After(exp) {
			delete(set, addr)
		}
	}
	if len(set) == 0 {
		delete(s.entries, name)
		return nil
	}
	return set
}

// lookup resolves a name to one live address: the most recently refreshed
// lease (ties broken lexicographically), which preserves the old
// single-address "last writer wins" reading for legacy callers.
func (s *Server) lookup(name string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	set := s.prune(name)
	if set == nil {
		return "", false
	}
	best, bestExp := "", time.Time{}
	for addr, exp := range set {
		if exp.After(bestExp) || (exp.Equal(bestExp) && addr < best) {
			best, bestExp = addr, exp
		}
	}
	return best, true
}

// lookupAll resolves a name to every live address, sorted for determinism.
func (s *Server) lookupAll(name string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	set := s.prune(name)
	if set == nil {
		return nil
	}
	out := make([]string, 0, len(set))
	for addr := range set {
		out = append(out, addr)
	}
	sort.Strings(out)
	return out
}

// list returns the live names with the given prefix.
func (s *Server) list(prefix string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for name := range s.entries {
		if s.prune(name) == nil {
			continue
		}
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			out = append(out, name)
		}
	}
	return out
}

// deregister removes a binding: every address when addr is "", else one.
func (s *Server) deregister(name, addr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if addr == "" {
		delete(s.entries, name)
		return
	}
	if set := s.entries[name]; set != nil {
		delete(set, addr)
		if len(set) == 0 {
			delete(s.entries, name)
		}
	}
}

// joinLines joins strings with newline separators (addresses and names
// never contain newlines; Parse-side splitting is splitLines).
func joinLines(items []string) string {
	joined := ""
	for i, it := range items {
		if i > 0 {
			joined += "\n"
		}
		joined += it
	}
	return joined
}

// splitLines is the inverse of joinLines; "" yields nil.
func splitLines(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return out
}

// Export builds the dispatchable directory interface.
func (s *Server) Export() *core.Interface {
	return core.NewInterface(Name, Version).
		Proc(procRegister, func(_ transport.Addr, d *marshal.Dec) ([]byte, error) {
			name := d.GetText()
			addr := d.GetText()
			ttl := d.Uint32()
			if err := d.Err(); err != nil {
				return nil, err
			}
			s.register(name.String(), addr.String(), time.Duration(ttl)*time.Second)
			return nil, nil
		}).
		Proc(procLookup, func(_ transport.Addr, d *marshal.Dec) ([]byte, error) {
			name := d.GetText()
			if err := d.Err(); err != nil {
				return nil, err
			}
			addr, ok := s.lookup(name.String())
			var out *marshal.Text
			if ok {
				out = marshal.NewText(addr)
			}
			return core.Reply(marshal.TextWireSize(out), func(e *marshal.Enc) {
				e.PutText(out)
			})
		}).
		Proc(procList, func(_ transport.Addr, d *marshal.Dec) ([]byte, error) {
			prefix := d.GetText()
			if err := d.Err(); err != nil {
				return nil, err
			}
			out := marshal.NewText(joinLines(s.list(prefix.String())))
			return core.Reply(marshal.TextWireSize(out), func(e *marshal.Enc) {
				e.PutText(out)
			})
		}).
		Proc(procDeregist, func(_ transport.Addr, d *marshal.Dec) ([]byte, error) {
			name := d.GetText()
			if err := d.Err(); err != nil {
				return nil, err
			}
			s.deregister(name.String(), "")
			return nil, nil
		}).
		Proc(procLookupAll, func(_ transport.Addr, d *marshal.Dec) ([]byte, error) {
			name := d.GetText()
			if err := d.Err(); err != nil {
				return nil, err
			}
			out := marshal.NewText(joinLines(s.lookupAll(name.String())))
			return core.Reply(marshal.TextWireSize(out), func(e *marshal.Enc) {
				e.PutText(out)
			})
		}).
		Proc(procDeregAddr, func(_ transport.Addr, d *marshal.Dec) ([]byte, error) {
			name := d.GetText()
			addr := d.GetText()
			if err := d.Err(); err != nil {
				return nil, err
			}
			s.deregister(name.String(), addr.String())
			return nil, nil
		})
}

// Client is the caller side of the directory.
type Client struct {
	c *core.Client
}

// NewClient binds to a directory exported at addr through node.
func NewClient(node *core.Node, addr transport.Addr) *Client {
	return &Client{c: node.Bind(addr, Name, Version).NewClient()}
}

// Register advertises a service name at addr with a lease of ttl.
func (r *Client) Register(name, addr string, ttl time.Duration) error {
	return r.RegisterCtx(context.Background(), name, addr, ttl)
}

// RegisterCtx is Register with cancellation: useful when a registry may be
// slow or unreachable and the caller has its own startup deadline.
func (r *Client) RegisterCtx(ctx context.Context, name, addr string, ttl time.Duration) error {
	n, a := marshal.NewText(name), marshal.NewText(addr)
	size := marshal.TextWireSize(n) + marshal.TextWireSize(a) + 4
	return r.c.CallCtx(ctx, procRegister, size, func(e *marshal.Enc) {
		e.PutText(n)
		e.PutText(a)
		e.PutUint32(uint32(ttl / time.Second))
	}, nil)
}

// Lookup resolves a service name to one address string (the most recently
// refreshed live lease). Multi-replica callers want LookupAll.
func (r *Client) Lookup(name string) (string, error) {
	return r.LookupCtx(context.Background(), name)
}

// LookupCtx is Lookup with cancellation.
func (r *Client) LookupCtx(ctx context.Context, name string) (string, error) {
	n := marshal.NewText(name)
	var out *marshal.Text
	err := r.c.CallCtx(ctx, procLookup, marshal.TextWireSize(n),
		func(e *marshal.Enc) { e.PutText(n) },
		func(d *marshal.Dec) { out = d.GetText() })
	if err != nil {
		return "", err
	}
	if out.IsNil() {
		return "", ErrNotFound
	}
	return out.String(), nil
}

// LookupAll resolves a service name to every live replica address.
func (r *Client) LookupAll(name string) ([]string, error) {
	return r.LookupAllCtx(context.Background(), name)
}

// LookupAllCtx is LookupAll with cancellation.
func (r *Client) LookupAllCtx(ctx context.Context, name string) ([]string, error) {
	n := marshal.NewText(name)
	var out *marshal.Text
	err := r.c.CallCtx(ctx, procLookupAll, marshal.TextWireSize(n),
		func(e *marshal.Enc) { e.PutText(n) },
		func(d *marshal.Dec) { out = d.GetText() })
	if err != nil {
		return nil, err
	}
	addrs := splitLines(out.String())
	if len(addrs) == 0 {
		return nil, ErrNotFound
	}
	return addrs, nil
}

// List returns the registered names with the given prefix.
func (r *Client) List(prefix string) ([]string, error) {
	return r.ListCtx(context.Background(), prefix)
}

// ListCtx is List with cancellation.
func (r *Client) ListCtx(ctx context.Context, prefix string) ([]string, error) {
	p := marshal.NewText(prefix)
	var out *marshal.Text
	err := r.c.CallCtx(ctx, procList, marshal.TextWireSize(p),
		func(e *marshal.Enc) { e.PutText(p) },
		func(d *marshal.Dec) { out = d.GetText() })
	if err != nil {
		return nil, err
	}
	return splitLines(out.String()), nil
}

// Deregister removes a service name (all replica addresses).
func (r *Client) Deregister(name string) error {
	return r.DeregisterCtx(context.Background(), name)
}

// DeregisterCtx is Deregister with cancellation.
func (r *Client) DeregisterCtx(ctx context.Context, name string) error {
	n := marshal.NewText(name)
	return r.c.CallCtx(ctx, procDeregist, marshal.TextWireSize(n),
		func(e *marshal.Enc) { e.PutText(n) }, nil)
}

// DeregisterAddr removes one replica address from a service name, leaving
// the other replicas' leases intact.
func (r *Client) DeregisterAddr(name, addr string) error {
	return r.DeregisterAddrCtx(context.Background(), name, addr)
}

// DeregisterAddrCtx is DeregisterAddr with cancellation.
func (r *Client) DeregisterAddrCtx(ctx context.Context, name, addr string) error {
	n, a := marshal.NewText(name), marshal.NewText(addr)
	return r.c.CallCtx(ctx, procDeregAddr, marshal.TextWireSize(n)+marshal.TextWireSize(a),
		func(e *marshal.Enc) {
			e.PutText(n)
			e.PutText(a)
		}, nil)
}

// Lease keeps one (name, addr) registration alive: it registers
// immediately and then re-registers every ttl/3 until the returned stop
// function is called, which also deregisters the address. Errors after the
// first successful registration are swallowed — a transiently unreachable
// directory just means the lease runs down until a refresh gets through,
// which is the lease design working as intended.
func (r *Client) Lease(name, addr string, ttl time.Duration) (stop func(), err error) {
	if err := r.Register(name, addr, ttl); err != nil {
		return nil, err
	}
	interval := ttl / 3
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				_ = r.DeregisterAddr(name, addr)
				return
			case <-t.C:
				_ = r.Register(name, addr, ttl)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		wg.Wait()
	}, nil
}
