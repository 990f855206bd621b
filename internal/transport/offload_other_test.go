//go:build !(linux && (amd64 || arm64))

package transport

// Without the Linux offload there is no GSO to turn off.
func withoutGSO(*UDP)      {}
func refuseGSO(*UDP) error { return nil }
func gsoOn(*UDP) bool      { return false }

// sendOps is the send operations a SendBatch of n frames takes: one Send
// each.
func sendOps(n int) int64 { return int64(n) }
