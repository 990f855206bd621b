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
// other platforms it degrades to the per-frame path wrapped so SendBatch
// still works (BatchEnabled reports false there).
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

// batchFallback is the generic ListenUDPBatch result on platforms without
// the mmsg engine: the per-frame transport with a loop-over-Send SendBatch.
// BatchEnabled reports false so upper layers don't build batching state for
// a path that can't amortize anything.
type batchFallback struct {
	*UDP
}

func (b *batchFallback) SendBatch(frames []Frame) (int, error) {
	for i, f := range frames {
		if err := b.Send(f.Dst, f.Data); err != nil {
			return i, err
		}
	}
	return len(frames), nil
}

func (b *batchFallback) BatchEnabled() bool { return false }
