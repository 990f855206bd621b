//go:build linux && (amd64 || arm64)

package transport

import (
	"context"
	"errors"
	"net"
	"net/netip"
	"sync"
	"syscall"
	"unsafe"
)

// batchUDP is the Linux batched UDP engine. Socket 0 carries all sends
// (single frames via the netpoller, batches via sendmmsg with per-message
// GSO); receive is sharded across SO_REUSEPORT sockets, each draining a
// recvmmsg vector in its own loop and splitting GRO-coalesced buffers back
// into wire-sized frames before delivery.
type batchUDP struct {
	conns []*net.UDPConn
	raws  []syscall.RawConn
	self  *udpAddr
	gro   bool

	mu     sync.RWMutex
	recv   Receiver
	closed bool
	wg     sync.WaitGroup

	// Send-side address interning for foreign Addr implementations; each
	// receive shard keeps its own unshared map instead.
	peerTable

	// tx sends batches from socket 0; they come from one flusher
	// goroutine anyway.
	tx gsoSender

	counters
}

func listenUDPBatch(addr string, opts UDPOptions) (Transport, error) {
	lc := net.ListenConfig{Control: func(network, address string, c syscall.RawConn) error {
		var serr error
		cerr := c.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
		})
		if cerr != nil {
			return cerr
		}
		return serr
	}}
	first, err := lc.ListenPacket(context.Background(), "udp", addr)
	if err != nil {
		return nil, err
	}
	conn0 := first.(*net.UDPConn)
	la := conn0.LocalAddr().(*net.UDPAddr)

	b := &batchUDP{
		conns: []*net.UDPConn{conn0},
		self:  newUDPAddr(la.AddrPort()),
	}
	// Remaining shards bind the exact resolved address. If the kernel
	// refuses (no REUSEPORT), run with fewer shards rather than failing.
	for i := 1; i < opts.Shards; i++ {
		c, err := lc.ListenPacket(context.Background(), "udp", la.String())
		if err != nil {
			break
		}
		b.conns = append(b.conns, c.(*net.UDPConn))
	}

	for _, c := range b.conns {
		raw, err := c.SyscallConn()
		if err != nil {
			b.closeConns()
			return nil, err
		}
		b.raws = append(b.raws, raw)
	}

	ap := la.AddrPort().Addr()
	b.tx.init(b.raws[0], !ap.Is4() && !ap.Is4In6(), probeGSO(b.raws[0]))
	// Enable GRO on every receive socket; all must accept for b.gro.
	b.gro = true
	for _, raw := range b.raws {
		if !enableGRO(raw) {
			b.gro = false
			break
		}
	}

	b.wg.Add(len(b.conns))
	for i := range b.conns {
		go b.readLoop(i)
	}
	return b, nil
}

func (b *batchUDP) closeConns() {
	for _, c := range b.conns {
		_ = c.Close()
	}
}

func (b *batchUDP) isClosed() bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.closed
}

// BatchEnabled implements BatchSender: the mmsg engine is always live on
// Linux (GSO/GRO degrade independently inside it).
func (b *batchUDP) BatchEnabled() bool { return true }

// TransportStats implements StatsReporter.
func (b *batchUDP) TransportStats() (Stats, bool) { return b.snapshot(), true }

// SetReceiver implements Transport.
func (b *batchUDP) SetReceiver(r Receiver) {
	b.mu.Lock()
	b.recv = r
	b.mu.Unlock()
}

// LocalAddr implements Transport.
func (b *batchUDP) LocalAddr() Addr { return b.self }

// MaxFrame implements Transport.
func (b *batchUDP) MaxFrame() int { return UDPMaxFrame }

// Close implements Transport.
func (b *batchUDP) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	b.mu.Unlock()
	var first error
	for _, c := range b.conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	b.wg.Wait()
	return first
}

// Send implements Transport: the single-frame path rides the netpoller
// like the per-frame transport, so mixed workloads need no batching at all.
func (b *batchUDP) Send(dst Addr, frame []byte) error {
	if b.isClosed() {
		return ErrClosed
	}
	if len(frame) > UDPMaxFrame {
		return ErrFrameTooLarge
	}
	ap, err := b.destAddrPort(dst)
	if err != nil {
		return err
	}
	if _, err := b.conns[0].WriteToUDPAddrPort(frame, ap); err != nil {
		b.sendErrors.Add(1)
		return err
	}
	b.observeSendBatch(1)
	return nil
}

// SendBatch implements BatchSender through the shared GSO sender. Should
// the kernel refuse a GSO message, GSO is off from then on and the rest of
// the batch goes out one frame per message, still through sendmmsg.
func (b *batchUDP) SendBatch(frames []Frame) (int, error) {
	if len(frames) == 0 {
		return 0, nil
	}
	if b.isClosed() {
		return 0, ErrClosed
	}
	n, err := b.tx.sendBatch(frames, b, &b.counters)
	if err != errGSORefused {
		return n, err
	}
	m, err := b.tx.sendBatch(frames[n:], b, &b.counters)
	return n + m, err
}

// ---------------------------------------------------------------------------
// Batched receive: recvmmsg vectors, GRO splitting, park when empty

// recvVec owns one shard's receive state: fixed buffers wired into mmsghdrs
// once, with the kernel-rewritten lengths reset before every call.
type recvVec struct {
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	bufs  [][]byte
	names []syscall.RawSockaddrInet6
	ctrls [][]byte
}

func newRecvVec(n, bufSize int) *recvVec {
	v := &recvVec{
		hdrs:  make([]mmsghdr, n),
		iovs:  make([]syscall.Iovec, n),
		bufs:  make([][]byte, n),
		names: make([]syscall.RawSockaddrInet6, n),
		ctrls: make([][]byte, n),
	}
	for i := range v.hdrs {
		v.bufs[i] = make([]byte, bufSize)
		v.ctrls[i] = make([]byte, 64)
		v.iovs[i].Base = &v.bufs[i][0]
		v.iovs[i].SetLen(bufSize)
		h := &v.hdrs[i].hdr
		h.Name = (*byte)(unsafe.Pointer(&v.names[i]))
		h.Iov = &v.iovs[i]
		h.Iovlen = 1
		h.Control = &v.ctrls[i][0]
	}
	return v
}

// reset restores the fields the kernel rewrites on every recvmmsg.
func (v *recvVec) reset() {
	for i := range v.hdrs {
		h := &v.hdrs[i].hdr
		h.Namelen = uint32(unsafe.Sizeof(v.names[i]))
		h.SetControllen(len(v.ctrls[i]))
		h.Flags = 0
		v.hdrs[i].len = 0
	}
}

// recvBatch is the recvmmsg vector size per shard.
const recvBatch = 32

func (b *batchUDP) readLoop(shard int) {
	defer b.wg.Done()
	bufSize := UDPMaxFrame + 1
	if b.gro {
		// GRO hands us coalesced buffers up to the UDP payload limit.
		bufSize = groBufLen
	}
	vec := newRecvVec(recvBatch, bufSize)
	peers := make(map[netip.AddrPort]*udpAddr) // shard-local, no lock
	raw := b.raws[shard]
	// The callback and the result slots it writes live outside the loop so
	// the closure (and its captures) heap-allocate once per shard, not once
	// per wakeup — the receive path must not charge allocations per batch.
	var n int
	var serr syscall.Errno
	readFn := func(fd uintptr) bool {
		vec.reset()
		r, _, e := syscall.Syscall6(sysRECVMMSG, fd,
			uintptr(unsafe.Pointer(&vec.hdrs[0])), uintptr(len(vec.hdrs)),
			syscall.MSG_DONTWAIT, 0, 0)
		switch e {
		case 0:
			n, serr = int(r), 0
		case syscall.EAGAIN:
			return false // park on the netpoller until the socket is readable
		default:
			n, serr = 0, e
		}
		return true
	}
	for {
		n, serr = 0, 0
		rerr := raw.Read(readFn)
		if rerr != nil {
			if errors.Is(rerr, net.ErrClosed) || b.isClosed() {
				return
			}
			b.recvErrors.Add(1)
			continue
		}
		if serr != 0 {
			if serr == syscall.EBADF || b.isClosed() {
				return
			}
			b.recvErrors.Add(1)
			continue
		}
		b.deliver(vec, peers, n)
	}
}

// deliver fans one recvmmsg result out to the receiver, splitting
// GRO-coalesced buffers back into individual ≤ MaxFrame frames so nothing
// above the transport (fault injection included) ever sees a super-packet.
func (b *batchUDP) deliver(vec *recvVec, peers map[netip.AddrPort]*udpAddr, n int) {
	b.mu.RLock()
	recv := b.recv
	b.mu.RUnlock()
	total := 0
	for i := 0; i < n; i++ {
		m := &vec.hdrs[i]
		src, ok := parseName(&vec.names[i], m.hdr.Namelen)
		if !ok {
			b.recvErrors.Add(1)
			continue
		}
		if m.hdr.Flags&syscall.MSG_TRUNC != 0 {
			b.oversizeDrops.Add(1)
			continue
		}
		buf := vec.bufs[i][:m.len]
		seg := 0
		if b.gro && m.hdr.Controllen > 0 {
			seg = groSegSize(vec.ctrls[i][:min(int(m.hdr.Controllen), len(vec.ctrls[i]))])
		}
		addr := peers[src]
		if addr == nil {
			addr = &udpAddr{ap: src, str: src.String()}
			peers[src] = addr
		}
		total += b.deliverSegments(recv, addr, buf, seg)
	}
	if total > 0 {
		b.observeRecvBatch(total)
	}
}

// ---------------------------------------------------------------------------
// Raw sockaddr conversion (ports are big-endian on the wire regardless of
// host order, so they go through explicit byte views).

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

func fillName(sa *syscall.RawSockaddrInet6, ap netip.AddrPort, v6 bool) uint32 {
	*sa = syscall.RawSockaddrInet6{}
	a := ap.Addr()
	if !v6 {
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		sa4.Family = syscall.AF_INET
		if a.Is4In6() {
			a = a.Unmap()
		}
		sa4.Addr = a.As4()
		setSockPort(&sa4.Port, ap.Port())
		return syscall.SizeofSockaddrInet4
	}
	sa.Family = syscall.AF_INET6
	sa.Addr = a.As16() // As16 yields the v4-mapped form for IPv4 addrs
	setSockPort(&sa.Port, ap.Port())
	return syscall.SizeofSockaddrInet6
}

func sockPort(p *uint16) uint16 {
	b := (*[2]byte)(unsafe.Pointer(p))
	return uint16(b[0])<<8 | uint16(b[1])
}

func setSockPort(p *uint16, port uint16) {
	b := (*[2]byte)(unsafe.Pointer(p))
	b[0] = byte(port >> 8)
	b[1] = byte(port)
}
