package proto

import (
	"sync"
	"sync/atomic"
	"time"

	"fireflyrpc/internal/stats"
	"fireflyrpc/internal/transport"
)

// channel is the per-peer half of the connection state: everything the
// protocol knows about one remote endpoint lives here rather than in
// Conn-global maps. Each peer gets its own call-table shard, its own
// server-activity table, and its own round-trip estimator, so a storm of
// traffic to or from one peer never contends with another peer's calls —
// the per-session state that lets a general RPC stack scale to many peers.
//
// Locks: callsMu guards calls; actsMu guards acts, evicted, and every
// serverAct's mutable fields; rttMu guards rtt. No code path holds two
// channel locks at once, and none is held across a transport send on the
// fast path.
type channel struct {
	key  string         // canonical peer name (Addr.String())
	peer transport.Addr // a canonical Addr for this peer

	callsMu sync.Mutex
	calls   map[callKey]*outCall // outgoing calls awaiting results

	actsMu  sync.Mutex
	acts    map[uint64]*serverAct // incoming activities (duplicate state)
	evicted bool                  // set once removed from the peer map

	rttMu sync.Mutex
	rtt   rttState

	// lastUsed is the unix-nano time of the channel's last send or receive;
	// the idle sweeper evicts channels that have been quiet too long.
	lastUsed atomic.Int64
	// executing counts in-flight server handler executions for this peer;
	// a busy channel is never evicted.
	executing atomic.Int64

	// hist is this peer's call-latency histogram, installed lazily on the
	// first completed call while observability is enabled (metrics.go).
	hist atomic.Pointer[stats.Hist]

	// sess is the packed session-negotiation word — state, agreed version,
	// and negotiated feature bits (see session.go). The call path reads it
	// with one atomic load; the hello state machine advances it by CAS.
	// helloNonce is the newest hello attempt's nonce, binding ack and
	// retry-timer processing to that attempt.
	sess       atomic.Uint64
	helloNonce atomic.Uint32
}

func (ch *channel) touch(now time.Time) { ch.lastUsed.Store(now.UnixNano()) }

// rttObserve folds one un-retransmitted round trip into the peer estimate.
func (ch *channel) rttObserve(sample time.Duration) {
	ch.rttMu.Lock()
	ch.rtt.observe(sample)
	ch.rttMu.Unlock()
}

// rttInterval returns the peer-adaptive initial retransmission interval,
// clamped to [floor, ceiling]; the ceiling doubles as the cold-start value.
func (ch *channel) rttInterval(floor, ceiling time.Duration) time.Duration {
	ch.rttMu.Lock()
	iv := ch.rtt.interval(floor, ceiling)
	ch.rttMu.Unlock()
	return iv
}

// peerShards is the fan-out of the peer map. Shards keep channel creation
// and lookup for unrelated peers from serializing on one lock; within a
// shard the critical section is a single map operation.
const peerShards = 16

type peerShard struct {
	mu    sync.Mutex
	peers map[string]*channel
}

// peerMap is the sharded peer directory: canonical address string → channel.
// Both bundled transports answer Addr.String() from a cached string, so the
// per-frame lookup does not allocate.
type peerMap struct {
	shards [peerShards]peerShard
}

func (m *peerMap) shard(key string) *peerShard {
	return &m.shards[hashString(key)%peerShards]
}

// channelOf returns the channel for addr, creating it on first contact.
func (c *Conn) channelOf(addr transport.Addr) *channel {
	key := addr.String()
	s := c.peers.shard(key)
	s.mu.Lock()
	ch := s.peers[key]
	if ch == nil {
		ch = &channel{
			key:   key,
			peer:  addr,
			calls: make(map[callKey]*outCall),
			acts:  make(map[uint64]*serverAct),
		}
		s.peers[key] = ch
	}
	s.mu.Unlock()
	return ch
}

// lookupChannel returns the channel for addr if one exists. Receive paths
// that only complete existing state (results, acks, rejects, cancels) use
// this so stray packets from unknown peers do not populate the peer map.
func (c *Conn) lookupChannel(addr transport.Addr) *channel {
	key := addr.String()
	s := c.peers.shard(key)
	s.mu.Lock()
	ch := s.peers[key]
	s.mu.Unlock()
	return ch
}

// forEachChannel visits every live channel (used by Close and tests).
func (c *Conn) forEachChannel(f func(*channel)) {
	for i := range c.peers.shards {
		s := &c.peers.shards[i]
		s.mu.Lock()
		chans := make([]*channel, 0, len(s.peers))
		for _, ch := range s.peers {
			chans = append(chans, ch)
		}
		s.mu.Unlock()
		for _, ch := range chans {
			f(ch)
		}
	}
}

// sweepIdle evicts channels that have been idle past the configured
// timeout: no outstanding calls, no executing handlers, no recent traffic.
// Eviction releases the retained result frames (the per-peer state the 1989
// design kept forever) and marks the channel so any straggling reference —
// a worker that looked a serverAct up just before eviction — releases
// rather than retains. It is called from the retransmission engine's
// goroutine, so no extra janitor thread exists.
func (c *Conn) sweepIdle(now time.Time) {
	idle := c.cfg.PeerIdleTimeout
	if idle <= 0 {
		return
	}
	cutoff := now.Add(-idle).UnixNano()
	for i := range c.peers.shards {
		s := &c.peers.shards[i]
		s.mu.Lock()
		var victims []*channel
		for key, ch := range s.peers {
			if ch.lastUsed.Load() > cutoff || ch.executing.Load() > 0 {
				continue
			}
			ch.callsMu.Lock()
			busy := len(ch.calls) > 0
			ch.callsMu.Unlock()
			if busy {
				continue
			}
			delete(s.peers, key)
			victims = append(victims, ch)
		}
		s.mu.Unlock()
		for _, ch := range victims {
			c.evictChannel(ch)
		}
	}
}

// evictChannel releases a channel's retained server state. The channel is
// already out of the peer map; the evicted flag makes any stale serverAct
// reference release future frames instead of parking them where nobody
// will ever recycle them.
func (c *Conn) evictChannel(ch *channel) {
	ch.actsMu.Lock()
	ch.evicted = true
	for _, act := range ch.acts {
		if act.lastResultFrame != nil {
			act.lastResultFrame.Release()
			act.lastResultFrame = nil
		}
		act.argBuf = nil
	}
	ch.acts = make(map[uint64]*serverAct)
	ch.actsMu.Unlock()
	c.stats.peersEvicted.Add(1)
}

// outstandingCalls counts in-flight outgoing calls across all channels;
// leak tests assert it returns to zero.
func (c *Conn) outstandingCalls() int {
	n := 0
	c.forEachChannel(func(ch *channel) {
		ch.callsMu.Lock()
		n += len(ch.calls)
		ch.callsMu.Unlock()
	})
	return n
}

// numPeers counts live channels.
func (c *Conn) numPeers() int {
	n := 0
	for i := range c.peers.shards {
		s := &c.peers.shards[i]
		s.mu.Lock()
		n += len(s.peers)
		s.mu.Unlock()
	}
	return n
}
