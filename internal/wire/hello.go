package wire

// Session negotiation: on first contact with a peer, the protocol layer
// sends a TypeHello carrying the session version range it speaks and the
// feature bitset it implements; the peer answers with a TypeHelloAck
// carrying the agreed version (the minimum of the two maxima) and the
// intersection of the two feature sets. A peer that never answers — an old
// binary that counts hello packets as bad frames — leaves the caller on the
// implicit legacy session (version 0), which behaves exactly as the
// pre-hello protocol did. The negotiated set is cached per peer channel, so
// the steady-state call path pays one atomic load.

// Session versions. Version 0 is reserved for the implicit legacy session
// (never sent in a hello; an ack carrying version 0 means "no overlap, stay
// legacy"). SessionVersion is the newest revision this binary speaks,
// SessionMinVersion the oldest it still accepts.
const (
	SessionVersion    uint16 = 1
	SessionMinVersion uint16 = 1
)

// Feature bits, advertised in Hello.Features and negotiated down to the
// intersection. A bit may only be relied on after negotiation; the legacy
// session implies exactly the v0 behavior (budget hints and cancel packets
// were sent unconditionally before hello existed, so legacy keeps them on).
// Bits 2–4 are unassigned: older binaries advertised batch, coalesce and
// stream there, which nothing read, and they intersect away.
const (
	// FeatBudget: call packets may carry a remaining-deadline budget in the
	// Hint field (FlagBudget), consumed by admission control.
	FeatBudget uint64 = 1 << 0
	// FeatCancel: the peer understands TypeCancel abandonment notices.
	FeatCancel uint64 = 1 << 1
	// FeatTrace: sampled calls may carry a TraceCtx message prefix
	// (FlagTraceCtx) naming the distributed trace and parent span, and the
	// peer both stamps its stage records under those identifiers and
	// re-emits the context on chained calls. Never part of the legacy set:
	// a v0 peer would misparse the prefix as arguments, so without this bit
	// callers degrade to the advisory FlagTraced behavior.
	FeatTrace uint64 = 1 << 5
)

// featureNames maps known bits to display names, in bit order.
var featureNames = []struct {
	bit  uint64
	name string
}{
	{FeatBudget, "budget"},
	{FeatCancel, "cancel"},
	{FeatTrace, "trace"},
}

// FeatureNames renders a feature bitset as its known bit names, in bit
// order. Unknown bits are ignored (a newer peer may advertise bits this
// binary has no name for; they negotiate away in the intersection).
func FeatureNames(bits uint64) []string {
	var out []string
	for _, f := range featureNames {
		if bits&f.bit != 0 {
			out = append(out, f.name)
		}
	}
	return out
}

// HelloLen is the fixed hello/hello-ack payload length.
const HelloLen = 12

// Hello is the payload of a TypeHello or TypeHelloAck packet. In a hello,
// Version..MinVersion is the sender's acceptable range and Features its full
// advertisement; in an ack, Version is the agreed version (0 = rejection)
// and Features the agreed intersection. The hello's nonce rides in the RPC
// header's Seq field so a stale ack can never satisfy a newer hello.
type Hello struct {
	Version    uint16
	MinVersion uint16
	Features   uint64
}

// MarshalTo writes the 12-byte hello payload into b.
func (h *Hello) MarshalTo(b []byte) {
	put16(b[0:], h.Version)
	put16(b[2:], h.MinVersion)
	put64(b[4:], h.Features)
}

// UnmarshalHello parses a hello payload.
func UnmarshalHello(b []byte) (Hello, error) {
	var h Hello
	if len(b) < HelloLen {
		return h, ErrTruncated
	}
	h.Version = be16(b[0:])
	h.MinVersion = be16(b[2:])
	h.Features = be64(b[4:])
	return h, nil
}
