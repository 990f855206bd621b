package proto

import (
	"time"

	"fireflyrpc/internal/transport"
	"fireflyrpc/internal/wire"
)

// Session negotiation: the capability layer between the call path and the
// transports. On first contact with a peer the connection sends a
// wire.TypeHello advertising its session version range and feature bitset;
// the peer answers with the agreed version and the feature intersection,
// which is cached on the peer's channel. A peer that never answers — an old
// binary drops hellos as bad frames — leaves the channel on the implicit
// legacy session after a few retries, which behaves exactly as the
// pre-hello protocol did (budget hints and cancel packets on, since v0 sent
// both unconditionally). The call path consults the cached set instead of
// hard-coding wire flags; once the state leaves "unknown" that consultation
// is a single atomic load, so negotiation adds nothing to the steady-state
// fast path.
//
// The state machine lives in one packed atomic word per channel (see
// packSess), driven from three places that never block each other: the
// first StartCall to a peer (CAS unknown→pending + hello send), the receive
// path (hello → answer + negotiate, hello-ack → negotiate or reject), and a
// retry timer (resend, then pending→legacy after the attempts run out).
// Simultaneous negotiation in both directions is fine: whichever of the
// peer's hello or hello-ack arrives first installs the same intersection,
// and the loser's transition is a no-op.

// Session states, packed into the top bits of channel.sess.
const (
	sessUnknown    = iota // no contact yet; next call starts a hello
	sessPending           // hello in flight, awaiting ack or timeout
	sessNegotiated        // hello-ack agreed on a version + feature set
	sessLegacy            // peer never answered (or no common version): v0
)

// legacyFeatures is the implicit v0 session: before hello existed, budget
// hints and cancel packets were sent unconditionally, so the legacy
// fallback (and the pending window before negotiation concludes) keeps
// exactly that behavior.
const legacyFeatures = wire.FeatBudget | wire.FeatCancel

// defaultFeatures is what a connection advertises unless
// Config.AdvertiseFeatures narrows it. FeatTrace is safe to advertise
// unconditionally: the trace-context prefix is only emitted once the peer
// has agreed to it, and never on the legacy session.
const defaultFeatures = wire.FeatBudget | wire.FeatCancel | wire.FeatTrace

// sessFeatMask bounds the feature bits stored in the packed word. Known
// bits live far below it, and negotiation intersects with our own
// advertisement first, so the truncation is lossless.
const sessFeatMask = 1<<48 - 1

// packSess packs (state, version, features) into one atomic word:
// state in bits 62..63, version in bits 48..61, features in bits 0..47.
func packSess(state int, version uint16, features uint64) uint64 {
	return uint64(state)<<62 | uint64(version&0x3fff)<<48 | features&sessFeatMask
}

func sessStateOf(w uint64) int       { return int(w >> 62) }
func sessVersionOf(w uint64) uint16  { return uint16(w>>48) & 0x3fff }
func sessFeaturesOf(w uint64) uint64 { return w & sessFeatMask }

// sessStateName renders a session state for the debug surface.
func sessStateName(s int) string {
	switch s {
	case sessPending:
		return "pending"
	case sessNegotiated:
		return "negotiated"
	case sessLegacy:
		return "legacy"
	default:
		return "unknown"
	}
}

// features returns the capability set the call path may rely on for this
// peer right now: the negotiated intersection once the hello concluded,
// the legacy v0-implicit set otherwise (unknown, pending, legacy). One
// atomic load.
func (ch *channel) features() uint64 {
	w := ch.sess.Load()
	if sessStateOf(w) == sessNegotiated {
		return sessFeaturesOf(w)
	}
	return legacyFeatures
}

// casSess moves the session word from fromState to the packed word `to`,
// retrying only against concurrent writers in the same state. It reports
// whether this call performed the transition.
func (ch *channel) casSess(fromState int, to uint64) bool {
	for {
		cur := ch.sess.Load()
		if sessStateOf(cur) != fromState {
			return false
		}
		if ch.sess.CompareAndSwap(cur, to) {
			return true
		}
	}
}

// setNegotiated installs a negotiated session from any state, reporting
// whether the channel newly became negotiated (false when it already held
// the same agreement — retransmitted hellos are idempotent — or when only
// the agreement's content changed, e.g. a peer restarted with different
// features).
func (ch *channel) setNegotiated(version uint16, features uint64) bool {
	to := packSess(sessNegotiated, version, features)
	for {
		cur := ch.sess.Load()
		if cur == to {
			return false
		}
		if ch.sess.CompareAndSwap(cur, to) {
			return sessStateOf(cur) != sessNegotiated
		}
	}
}

// defaultHelloAttempts is how many hellos are sent before concluding the
// peer will never answer and falling back to the legacy session.
const defaultHelloAttempts = 3

func (c *Conn) helloTimeout() time.Duration {
	if c.cfg.HelloTimeout > 0 {
		return c.cfg.HelloTimeout
	}
	return c.cfg.RetransInterval
}

// ensureSession is the call path's hook: on the first call to a peer it
// kicks off hello negotiation and returns without waiting (the call
// proceeds under legacy-implied capabilities until the ack lands). Steady
// state — any state but unknown — is one atomic load and a branch.
func (c *Conn) ensureSession(ch *channel) {
	if sessStateOf(ch.sess.Load()) != sessUnknown {
		return
	}
	if c.cfg.DisableHello {
		// This endpoint behaves as a pre-hello binary: it never negotiates
		// and speaks the implicit v0 session with everyone.
		ch.casSess(sessUnknown, packSess(sessLegacy, 0, legacyFeatures))
		return
	}
	if !ch.casSess(sessUnknown, packSess(sessPending, 0, 0)) {
		return // another caller (or an inbound hello) won the race
	}
	c.sendHello(ch, 1)
}

// sendHello transmits one hello attempt and arms its retry/fallback timer.
// The nonce (carried in the header's Seq) binds the eventual ack to the
// newest attempt, so a stale ack or timer can never conclude negotiation.
func (c *Conn) sendHello(ch *channel, attempt int) {
	nonce := c.helloNonce.Add(1)
	ch.helloNonce.Store(nonce)
	c.stats.hellosSent.Add(1)
	body := wire.Hello{Version: c.helloVersion, MinVersion: c.helloMinVersion, Features: c.localFeatures}
	var buf [wire.HelloLen]byte
	body.MarshalTo(buf[:])
	h := wire.RPCHeader{Type: wire.TypeHello, Seq: nonce, FragCount: 1}
	_ = c.sendFrame(ch.peer, h, buf[:])
	c.clk.AfterFunc(c.helloTimeout(), func() { c.helloExpire(ch, nonce, attempt) })
}

// helloExpire is the retry timer: still pending on the same nonce means the
// hello (or its ack) was lost — resend, or after the last attempt conclude
// the peer is an old binary and fall back to the legacy session.
func (c *Conn) helloExpire(ch *channel, nonce uint32, attempt int) {
	if sessStateOf(ch.sess.Load()) != sessPending || ch.helloNonce.Load() != nonce {
		return // negotiation concluded, or a newer attempt owns the channel
	}
	if attempt < defaultHelloAttempts && !c.closed.Load() {
		c.sendHello(ch, attempt+1)
		return
	}
	if ch.casSess(sessPending, packSess(sessLegacy, 0, legacyFeatures)) {
		c.stats.sessionsLegacy.Add(1)
		c.flight.record(FlightSessionFallback, 0, 0, int64(attempt))
	}
}

// onHello answers a peer's hello: agree on min(version maxima) and the
// feature intersection, cache the agreement on our side of the channel
// (negotiation is symmetric — the responder learns the same set the
// initiator does), and ack with the result. No common version is answered
// with version 0, leaving both sides on the legacy session.
func (c *Conn) onHello(src transport.Addr, hdr wire.RPCHeader, payload []byte) {
	if c.cfg.DisableHello {
		// A pre-hello binary would not recognize the packet type at all.
		c.stats.badFrames.Add(1)
		return
	}
	body, err := wire.UnmarshalHello(payload)
	if err != nil {
		c.stats.badFrames.Add(1)
		return
	}
	ch := c.channelOf(src)
	ch.touch(c.clk.Now())
	ack := wire.Hello{MinVersion: c.helloMinVersion}
	if body.MinVersion > c.helloVersion || body.Version < c.helloMinVersion {
		c.stats.helloRejects.Add(1)
		if ch.casSess(sessUnknown, packSess(sessLegacy, 0, legacyFeatures)) {
			c.stats.sessionsLegacy.Add(1)
		}
	} else {
		v := c.helloVersion
		if body.Version < v {
			v = body.Version
		}
		feats := c.localFeatures & body.Features
		ack.Version = v
		ack.Features = feats
		if ch.setNegotiated(v, feats) {
			c.stats.sessionsNegotiated.Add(1)
		}
	}
	var buf [wire.HelloLen]byte
	ack.MarshalTo(buf[:])
	h := wire.RPCHeader{Type: wire.TypeHelloAck, Seq: hdr.Seq, FragCount: 1}
	_ = c.sendFrame(src, h, buf[:])
}

// onHelloAck concludes the negotiation this side initiated. Acks that do
// not match the pending nonce — stale retransmissions, or answers to an
// attempt that already timed out — are ignored; an ack carrying version 0
// (or one outside our range) means no agreement, so the channel falls back
// to legacy rather than guessing.
func (c *Conn) onHelloAck(src transport.Addr, hdr wire.RPCHeader, payload []byte) {
	if c.cfg.DisableHello {
		c.stats.badFrames.Add(1)
		return
	}
	body, err := wire.UnmarshalHello(payload)
	if err != nil {
		c.stats.badFrames.Add(1)
		return
	}
	ch := c.lookupChannel(src)
	if ch == nil {
		return
	}
	if sessStateOf(ch.sess.Load()) != sessPending || ch.helloNonce.Load() != hdr.Seq {
		return
	}
	if body.Version < c.helloMinVersion || body.Version > c.helloVersion {
		c.stats.helloRejects.Add(1)
		if ch.casSess(sessPending, packSess(sessLegacy, 0, legacyFeatures)) {
			c.stats.sessionsLegacy.Add(1)
		}
		return
	}
	if ch.setNegotiated(body.Version, body.Features&c.localFeatures) {
		c.stats.sessionsNegotiated.Add(1)
	}
}
