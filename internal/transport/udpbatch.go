package transport

import "runtime"

// UDPOptions configures the batched UDP engine. The zero value picks
// sensible defaults everywhere.
type UDPOptions struct {
	// Shards is the number of SO_REUSEPORT receive sockets, each with its
	// own read loop and interned peer map. 0 means min(NumCPU, 4); 1
	// disables sharding. The kernel's 4-tuple hash keeps every peer on one
	// shard, so per-peer delivery order is preserved.
	Shards int
}

// ListenUDPBatch opens the batched UDP transport on addr. On Linux this is
// the sendmmsg/recvmmsg engine with GSO/GRO and SO_REUSEPORT sharding; on
// other platforms it is the per-frame transport, whose SendBatch loops
// over Send and whose BatchEnabled reports false.
//
// Upper layers see exactly the Transport contract either way: frames are
// ≤ MaxFrame bytes, kernel coalescing and segmentation are invisible, and
// frames to one peer are never reordered by the transport itself.
func ListenUDPBatch(addr string, opts UDPOptions) (Transport, error) {
	if opts.Shards <= 0 {
		opts.Shards = min(runtime.NumCPU(), 4)
	}
	return listenUDPBatch(addr, opts)
}
