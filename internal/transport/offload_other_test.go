//go:build !(linux && (amd64 || arm64))

package transport

// Without the Linux offload there is no GSO to turn off.
func withoutGSO(*UDP)      {}
func refuseGSO(*UDP) error { return nil }
func gsoOn(*UDP) bool      { return false }
