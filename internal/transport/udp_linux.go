//go:build linux && (amd64 || arm64)

package transport

import (
	"errors"
	"net"
	"net/netip"
	"syscall"
	"unsafe"

	"fireflyrpc/internal/buffer"
)

// vectorIO reports whether the socket's I/O is vectored: here the read
// loop is a recvmmsg loop and SendBatch a sendmmsg send.
const vectorIO = true

// udpOffload is the UDP transport's vector I/O on Linux: the raw socket the
// recvmmsg read loop drains, the sendmmsg sender behind SendBatch (GSO
// where the kernel accepts UDP_SEGMENT), and whether UDP_GRO is on.
type udpOffload struct {
	raw syscall.RawConn
	tx  gsoSender
	gro bool
}

func (u *UDP) initOffload() error {
	raw, err := u.conn.SyscallConn()
	if err != nil {
		return err
	}
	u.raw = raw
	ap := u.self.ap.Addr()
	u.tx.init(raw, !ap.Is4() && !ap.Is4In6(), probeGSO(raw))
	u.gro = enableGRO(raw)
	return nil
}

// SendBatch implements BatchSender through the sendmmsg sender: each run of
// equal-size frames to one destination (a shorter final frame may end it)
// leaves as one GSO message, all of them in one sendmmsg where the socket
// buffer allows. Without UDP_SEGMENT, or once the kernel has refused it,
// every frame is its own message, still in one sendmmsg.
func (u *UDP) SendBatch(frames []Frame) (int, error) {
	if u.isClosed() {
		return 0, ErrClosed
	}
	n, err := u.tx.sendBatch(frames, &u.peerTable, &u.counters)
	if err == errGSORefused {
		var m int
		m, err = u.tx.sendBatch(frames[n:], &u.peerTable, &u.counters)
		n += m
	}
	if err != nil && u.isClosed() {
		err = ErrClosed
	}
	return n, err
}

// recvBatch is the receive vector's length: one recvmmsg takes up to this
// many datagrams or GRO bursts.
const recvBatch = 8

// recvVec is the read loop's recvmmsg vector: each header wired once to
// its buffer, source-address slot and control slot, with the fields the
// kernel rewrites reset before every call.
type recvVec struct {
	hdrs  [recvBatch]mmsghdr
	iovs  [recvBatch]syscall.Iovec
	names [recvBatch]syscall.RawSockaddrInet6
	ctrls [recvBatch][64]byte
	bufs  [recvBatch][]byte
}

// init cuts mem into the vector's buffers of bufLen bytes each.
func (v *recvVec) init(mem []byte, bufLen int) {
	for i := range v.hdrs {
		v.bufs[i] = mem[i*bufLen : (i+1)*bufLen : (i+1)*bufLen]
		v.iovs[i].Base = &v.bufs[i][0]
		v.iovs[i].SetLen(bufLen)
		h := &v.hdrs[i].hdr
		h.Name = (*byte)(unsafe.Pointer(&v.names[i]))
		h.Iov = &v.iovs[i]
		h.Iovlen = 1
		h.Control = &v.ctrls[i][0]
	}
}

// reset restores the fields the kernel rewrites on every recvmmsg.
func (v *recvVec) reset() {
	for i := range v.hdrs {
		h := &v.hdrs[i].hdr
		h.Namelen = syscall.SizeofSockaddrInet6
		h.SetControllen(len(v.ctrls[i]))
		h.Flags = 0
		v.hdrs[i].len = 0
	}
}

// readLoop drains the socket a recvmmsg vector at a time, parking on the
// netpoller while it is empty. The buffers are mapped outside the heap:
// with UDP_GRO each holds a whole coalesced burst, and the collector need
// not scan or count them.
func (u *UDP) readLoop() {
	defer close(u.done)
	bufLen := UDPMaxFrame + 1
	if u.gro {
		bufLen = groBufLen
	}
	mem := buffer.Map(recvBatch * bufLen)
	defer buffer.Unmap(mem)
	v := new(recvVec)
	v.init(mem, bufLen)
	// The callback and the result slots it writes live outside the loop so
	// they are allocated once per socket, not once per wakeup.
	var n int
	var serr syscall.Errno
	readFn := func(fd uintptr) bool {
		v.reset()
		r, _, e := syscall.Syscall6(sysRECVMMSG, fd,
			uintptr(unsafe.Pointer(&v.hdrs[0])), recvBatch,
			syscall.MSG_DONTWAIT, 0, 0)
		switch e {
		case 0:
			n, serr = int(r), 0
		case syscall.EAGAIN:
			return false
		default:
			n, serr = 0, e
		}
		return true
	}
	for {
		err := u.raw.Read(readFn)
		if err == nil && serr != 0 {
			err = serr
		}
		if err != nil {
			if errors.Is(err, net.ErrClosed) || err == syscall.EBADF || u.isClosed() {
				return
			}
			// Transient (ICMP-reflected, buffer pressure): count and go on.
			u.recvErrors.Add(1)
			continue
		}
		u.deliver(v, n)
	}
}

// deliver hands the n messages one recvmmsg filled to the receiver, each
// split into frames by deliverSegments, and counts them as one receive
// operation.
func (u *UDP) deliver(v *recvVec, n int) {
	u.mu.RLock()
	recv := u.recv
	u.mu.RUnlock()
	total := 0
	for i := range v.hdrs[:n] {
		h := &v.hdrs[i]
		src, ok := parseName(&v.names[i], h.hdr.Namelen)
		if !ok {
			u.recvErrors.Add(1)
			continue
		}
		if h.hdr.Flags&syscall.MSG_TRUNC != 0 {
			u.oversizeDrops.Add(1)
			continue
		}
		seg := 0
		if u.gro {
			seg = groSegSize(v.ctrls[i][:min(int(h.hdr.Controllen), len(v.ctrls[i]))])
		}
		total += u.deliverSegments(recv, u.peer(src), v.bufs[i][:h.len], seg)
	}
	if total > 0 {
		u.observeRecvBatch(total)
	}
}

// parseName reads a source address the kernel wrote into a receive slot.
func parseName(sa *syscall.RawSockaddrInet6, namelen uint32) (netip.AddrPort, bool) {
	switch sa.Family {
	case syscall.AF_INET:
		if namelen < syscall.SizeofSockaddrInet4 {
			return netip.AddrPort{}, false
		}
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		return netip.AddrPortFrom(netip.AddrFrom4(sa4.Addr), sockPort(&sa4.Port)), true
	case syscall.AF_INET6:
		if namelen < syscall.SizeofSockaddrInet6 {
			return netip.AddrPort{}, false
		}
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr).Unmap(), sockPort(&sa.Port)), true
	}
	return netip.AddrPort{}, false
}
