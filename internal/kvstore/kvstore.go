// Package kvstore is the cluster layer's flagship application: a
// replicated, versioned key-value store built from the pieces below it —
// Fanout for majority writes, the P2C/hedged Call path for reads, and the
// registry for naming the replica set.
//
// Replication scheme. Every value carries a version; a replica applies a
// write only when its version exceeds the one it holds (higher-version-
// wins). That makes writes idempotent: a write delivered twice — a
// retransmission, a fanout straggler finishing after the quorum, or an
// operator retry — applies at most once, which is what lets the client
// layer retry and cancel freely without a replica ever double-committing
// (DESIGN.md's hedge-never-double-commits invariant; hedging itself is
// reserved for reads anyway). Versions are taken as (majority-read max)+1,
// so a successful Put is ordered after every write a majority had seen.
//
// Consistency. Put fans to all replicas and succeeds on majority ack.
// Get reads a majority and returns the highest-versioned value, so any
// Get observes every majority-acked Put: two majorities intersect. GetAny
// is the fast path — one balanced, optionally hedged read — and may
// return a stale value during partitions; it is for read-heavy callers
// that tolerate bounded staleness, and it is where hedging earns its keep.
package kvstore

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"fireflyrpc/internal/cluster"
	"fireflyrpc/internal/core"
	"fireflyrpc/internal/marshal"
	"fireflyrpc/internal/transport"
)

// Interface identity and procedures.
const (
	IfaceName    = "KV"
	IfaceVersion = 1

	ProcPut  = 1 // key, version, value → applied(bool), holder version
	ProcGet  = 2 // key → found(bool), version, value
	ProcKeys = 3 // () → count, keys (diagnostics)
)

// ErrNotFound reports a Get for a key no quorum member holds.
var ErrNotFound = errors.New("kvstore: key not found")

// entry is one replica-local versioned value.
type entry struct {
	val []byte
	ver uint64
}

// Store is one replica's state machine. All methods are safe for
// concurrent use; Apply is the only mutation and is idempotent.
type Store struct {
	mu sync.RWMutex
	m  map[string]entry

	applies atomic.Int64 // writes that advanced a key
	ignored atomic.Int64 // writes discarded as stale (≤ held version)
}

// NewStore returns an empty replica store.
func NewStore() *Store { return &Store{m: make(map[string]entry)} }

// Apply installs (key, ver, val) iff ver is newer than the held version,
// and reports whether it did. Re-applying the same write is a no-op, so
// duplicate deliveries cannot double-commit.
func (s *Store) Apply(key string, ver uint64, val []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.m[key]; ok && ver <= cur.ver {
		s.ignored.Add(1)
		return false
	}
	v := make([]byte, len(val))
	copy(v, val)
	s.m[key] = entry{val: v, ver: ver}
	s.applies.Add(1)
	return true
}

// Get returns the held value and version for key.
func (s *Store) Get(key string) (val []byte, ver uint64, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.m[key]
	return e.val, e.ver, ok
}

// Len reports the number of keys held.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// StoreStats counts a replica's write dispositions.
type StoreStats struct {
	Applies int64 `json:"applies"`
	Ignored int64 `json:"ignored"`
}

// Stats snapshots the store's counters.
func (s *Store) Stats() StoreStats {
	return StoreStats{Applies: s.applies.Load(), Ignored: s.ignored.Load()}
}

// Export wires the store's procedures into a core interface for serving.
func (s *Store) Export() *core.Interface {
	return core.NewInterface(IfaceName, IfaceVersion).
		Proc(ProcPut, func(_ transport.Addr, d *marshal.Dec) ([]byte, error) {
			key := d.String()
			ver := d.Uint64()
			val := d.AliasVarBytes()
			if err := d.Err(); err != nil {
				return nil, err
			}
			applied := s.Apply(key, ver, val)
			_, held, _ := s.Get(key)
			return core.Reply(1+8, func(e *marshal.Enc) {
				e.PutBool(applied)
				e.PutUint64(held)
			})
		}).
		Proc(ProcGet, func(_ transport.Addr, d *marshal.Dec) ([]byte, error) {
			key := d.String()
			if err := d.Err(); err != nil {
				return nil, err
			}
			val, ver, ok := s.Get(key)
			return core.Reply(1+8+4+len(val), func(e *marshal.Enc) {
				e.PutBool(ok)
				e.PutUint64(ver)
				e.PutVarBytes(val)
			})
		}).
		Proc(ProcKeys, func(_ transport.Addr, d *marshal.Dec) ([]byte, error) {
			if err := d.Err(); err != nil {
				return nil, err
			}
			s.mu.RLock()
			keys := make([]string, 0, len(s.m))
			size := 4
			for k := range s.m {
				keys = append(keys, k)
				size += 4 + len(k)
			}
			s.mu.RUnlock()
			return core.Reply(size, func(e *marshal.Enc) {
				e.PutUint32(uint32(len(keys)))
				for _, k := range keys {
					e.PutString(k)
				}
			})
		})
}

// KV is the replicated client: a thin protocol on top of cluster.Client.
type KV struct {
	c *cluster.Client
}

// NewKV wraps a cluster client configured for the KV interface.
func NewKV(c *cluster.Client) *KV { return &KV{c: c} }

// Cluster exposes the underlying balancer (stats, debug surface).
func (kv *KV) Cluster() *cluster.Client { return kv.c }

// versionQuorum majority-reads key's version: the max version any quorum
// member holds. Ordered-after semantics for Put derive from this read.
func (kv *KV) versionQuorum(ctx context.Context, key string) (uint64, error) {
	var max uint64
	_, err := kv.c.Fanout(ctx, ProcGet, 4+len(key),
		func(e *marshal.Enc) { e.PutString(key) },
		func(_ string, d *marshal.Dec) error {
			ok := d.Bool()
			ver := d.Uint64()
			d.AliasVarBytes()
			if err := d.Err(); err != nil {
				return err
			}
			if ok && ver > max {
				max = ver
			}
			return nil
		}, 0)
	return max, err
}

// Put writes key=val to the replica set: version = (majority-read max)+1,
// fanned to every replica, succeeding once a majority acks. Returns the
// version the write committed at.
func (kv *KV) Put(ctx context.Context, key string, val []byte) (uint64, error) {
	cur, err := kv.versionQuorum(ctx, key)
	if err != nil {
		return 0, err
	}
	ver := cur + 1
	_, err = kv.c.Fanout(ctx, ProcPut, 4+len(key)+8+4+len(val),
		func(e *marshal.Enc) {
			e.PutString(key)
			e.PutUint64(ver)
			e.PutVarBytes(val)
		},
		nil, 0)
	if err != nil {
		return 0, err
	}
	return ver, nil
}

// Get majority-reads key and returns the highest-versioned value seen —
// never older than the last majority-acked Put.
func (kv *KV) Get(ctx context.Context, key string) ([]byte, uint64, error) {
	var val []byte
	var ver uint64
	found := false
	_, err := kv.c.Fanout(ctx, ProcGet, 4+len(key),
		func(e *marshal.Enc) { e.PutString(key) },
		func(_ string, d *marshal.Dec) error {
			ok := d.Bool()
			v := d.Uint64()
			b := d.AliasVarBytes()
			if err := d.Err(); err != nil {
				return err
			}
			if ok && (!found || v > ver) {
				found, ver = true, v
				val = append(val[:0], b...)
			}
			return nil
		}, 0)
	if err != nil {
		return nil, 0, err
	}
	if !found {
		return nil, 0, ErrNotFound
	}
	return val, ver, nil
}

// GetAny reads key from one balanced (and, if configured, hedged)
// replica. Fast and tail-tolerant, but a partitioned or lagging replica
// may answer with a stale value — callers choose this trade explicitly.
func (kv *KV) GetAny(ctx context.Context, key string) (val []byte, ver uint64, err error) {
	found := false
	err = kv.c.Call(ctx, ProcGet, 4+len(key),
		func(e *marshal.Enc) { e.PutString(key) },
		func(d *marshal.Dec) {
			found = d.Bool()
			ver = d.Uint64()
			b := d.VarBytes()
			val = b
		})
	if err != nil {
		return nil, 0, err
	}
	if !found {
		return nil, 0, ErrNotFound
	}
	return val, ver, nil
}
