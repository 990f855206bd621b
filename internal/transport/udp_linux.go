//go:build linux && (amd64 || arm64)

package transport

import (
	"net/netip"
	"syscall"
)

// udpOffload is the per-frame UDP transport's segmentation offload on
// Linux: the GSO sender SendBatch shares with the batched engine, nil when
// the kernel lacks UDP_SEGMENT, and whether UDP_GRO is on for the read
// loop.
type udpOffload struct {
	tx  *gsoSender
	gro bool
}

func (u *UDP) initOffload() {
	raw, err := u.conn.SyscallConn()
	if err != nil {
		return
	}
	if probeGSO(raw) {
		ap := u.self.ap.Addr()
		u.tx = new(gsoSender)
		u.tx.init(raw, !ap.Is4() && !ap.Is4In6(), true)
	}
	u.gro = enableGRO(raw)
}

func (u *UDP) recvBufLen() int {
	if u.gro {
		return groBufLen
	}
	return UDPMaxFrame + 1
}

// read receives one datagram, or one GRO-coalesced burst and the size of
// its segments (0 for a lone datagram).
func (u *UDP) read(buf, oob []byte) (n, seg int, src netip.AddrPort, err error) {
	if !u.gro {
		n, src, err = u.conn.ReadFromUDPAddrPort(buf)
		return n, 0, src, err
	}
	for {
		n, oobn, flags, src, err := u.conn.ReadMsgUDPAddrPort(buf, oob)
		if err == nil && flags&syscall.MSG_TRUNC != 0 {
			u.oversizeDrops.Add(1)
			continue
		}
		return n, groSegSize(oob[:oobn]), src, err
	}
}

// SendBatch implements BatchSender: each run of equal-size frames to one
// destination (a shorter final frame may end it) leaves as one GSO
// message, all of them in one sendmmsg where the socket buffer allows.
// Without UDP_SEGMENT, or once the kernel has refused it, it is a loop over
// Send.
func (u *UDP) SendBatch(frames []Frame) (int, error) {
	if u.tx == nil || !u.tx.gso.Load() {
		return u.sendEach(frames)
	}
	if u.isClosed() {
		return 0, ErrClosed
	}
	n, err := u.tx.sendBatch(frames, u, &u.counters)
	if err != errGSORefused {
		if err != nil && u.isClosed() {
			err = ErrClosed
		}
		return n, err
	}
	m, err := u.sendEach(frames[n:])
	return n + m, err
}
