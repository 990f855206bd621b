//go:build linux && (amd64 || arm64)

package transport

import "syscall"

// withoutGSO makes u behave as on a kernel without UDP_SEGMENT.
func withoutGSO(u *UDP) { u.tx.gso.Store(false) }

// refuseGSO sets SO_NO_CHECK on u's socket. The kernel then refuses every
// GSO send with EINVAL, as it does on a path that cannot segment, while
// single datagrams still go out.
func refuseGSO(u *UDP) error {
	var serr error
	if err := u.raw.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_NO_CHECK, 1)
	}); err != nil {
		return err
	}
	return serr
}

// gsoOn reports whether u's SendBatch still uses GSO.
func gsoOn(u *UDP) bool { return u.tx.gso.Load() }

// sendOps is the send operations a SendBatch of n frames without GSO
// takes: one sendmmsg.
func sendOps(int) int64 { return 1 }
