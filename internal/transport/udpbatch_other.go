//go:build !(linux && (amd64 || arm64))

package transport

// listenUDPBatch on platforms without the mmsg engine is the per-frame
// transport: identical semantics, no amortization.
func listenUDPBatch(addr string, _ UDPOptions) (Transport, error) {
	return ListenUDP(addr)
}
