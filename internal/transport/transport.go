// Package transport defines the datagram abstraction the real RPC stack
// runs over, with implementations mirroring the Firefly's bind-time
// transport choice: one UDP socket type (inter-machine; ListenUDP, or
// ListenUDPBatch to have the protocol queue independent sends), TCP
// streams multiplexing a peer's frames, an in-process shared-memory
// exchange (the paper's "local RPC"), and WithAuth, which tags every frame
// of any of them.
//
// A transport carries RPC frames: a 32-byte wire.RPCHeader followed by the
// payload. Ethernet/IP/UDP framing is the kernel's business here, exactly
// as it would have been for a user-space RPC runtime.
package transport

import "errors"

// Addr is an opaque, comparable endpoint address rendered by String.
type Addr interface {
	String() string
	Network() string
}

// Receiver consumes arriving frames. Implementations are called from the
// transport's receive goroutine(s); they must not block for long.
//
// The frame slice is only valid for the duration of the call: every bundled
// transport delivers into a reused receive buffer (UDP on Linux delivers
// many frames from one recvmmsg vector, elsewhere from a single recycled
// buffer), so a receiver that needs the bytes afterwards must copy them.
// Retaining the slice corrupts a later frame.
type Receiver func(src Addr, frame []byte)

// Frame is one outgoing frame in a batch: a destination and the bytes to
// send. The Data slice must stay valid until the SendBatch call returns.
type Frame struct {
	Dst  Addr
	Data []byte
}

// BatchSender is the optional batched datapath a Transport may offer. A
// transport that implements it can transmit many frames in one operation —
// UDP on Linux turns a batch into one sendmmsg, with each run of equal
// frames to one peer a GSO message — so a sender holding a burst (the
// protocol's fragment windows, or its send queue) hands it over in one
// call instead of one syscall per packet.
//
// SendBatch transmits the frames in order. Frames to the same destination
// are never reordered relative to each other (coalescing and segmentation
// preserve submission order); frames may still be lost or reordered by the
// network itself, as with Send. It returns the number of frames accepted
// and the first local, permanent error.
//
// BatchEnabled reports whether the protocol should queue independent
// sends so they leave together through SendBatch: it is true for a
// ListenUDPBatch socket where SendBatch is a vector send, and for TCP,
// whose flushes cost as much for one frame as for many. It is false where
// SendBatch works but independent sends should leave at once: a ListenUDP
// socket, or a wrapper whose inner transport says false.
type BatchSender interface {
	SendBatch(frames []Frame) (int, error)
	BatchEnabled() bool
}

// SupportsBatch reports whether t wants independent sends queued into
// batches (BatchEnabled).
func SupportsBatch(t Transport) bool {
	bs, ok := t.(BatchSender)
	return ok && bs.BatchEnabled()
}

// Stats counts transport-level events: what the socket layer dropped or
// failed before the protocol ever saw a frame, and how well the batched
// datapath is amortizing syscalls. All counters are lock-free atomics on
// the live transport; Stats is the snapshot type.
type Stats struct {
	// OversizeDrops counts received datagrams (or GRO segments) longer than
	// MaxFrame, discarded before delivery.
	OversizeDrops int64 `json:"oversize_drops"`
	// RecvErrors counts transient receive-syscall failures (not shutdown).
	RecvErrors int64 `json:"recv_errors"`
	// SendErrors counts transient send failures.
	SendErrors int64 `json:"send_errors"`
	// RecvBatches counts receive operations (one recvmmsg, or one per-frame
	// read); RecvFrames counts frames delivered. RecvFrames/RecvBatches is
	// the observed receive batch size — frames per syscall.
	RecvBatches int64 `json:"recv_batches"`
	RecvFrames  int64 `json:"recv_frames"`
	// MaxRecvBatch is the largest single receive batch observed.
	MaxRecvBatch int64 `json:"max_recv_batch"`
	// SendBatches counts send operations (one sendmmsg, or one per-frame
	// write); SendFrames counts frames sent through them.
	SendBatches int64 `json:"send_batches"`
	SendFrames  int64 `json:"send_frames"`
	// MaxSendBatch is the largest single send batch observed.
	MaxSendBatch int64 `json:"max_send_batch"`
	// GSOSends counts kernel-segmented super-packets sent (each carrying
	// ≥2 frames); GROSplits counts frames recovered by splitting
	// kernel-coalesced receive buffers.
	GSOSends  int64 `json:"gso_sends"`
	GROSplits int64 `json:"gro_splits"`
}

// StatsReporter is implemented by transports that keep Stats. Wrappers
// (faultnet) forward to the wrapped transport.
type StatsReporter interface {
	TransportStats() (Stats, bool)
}

// Transport is an unreliable datagram channel. Frames may be lost,
// duplicated, or reordered; the protocol layer copes.
type Transport interface {
	// Send transmits one frame to dst. It may drop silently (as UDP does);
	// it returns an error only for local, permanent failures.
	Send(dst Addr, frame []byte) error
	// SetReceiver installs the arrival callback. Must be called before any
	// frame arrives; the frame slice is only valid during the callback.
	SetReceiver(r Receiver)
	// LocalAddr names this endpoint.
	LocalAddr() Addr
	// MaxFrame is the largest frame Send accepts.
	MaxFrame() int
	// Close stops reception and releases resources.
	Close() error
}

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("transport: closed")

// ErrFrameTooLarge is returned when a frame exceeds MaxFrame.
var ErrFrameTooLarge = errors.New("transport: frame exceeds maximum size")
