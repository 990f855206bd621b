//go:build linux && (amd64 || arm64)

package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"syscall"
	"unsafe"
)

// Kernel constants the stdlib syscall package doesn't export. SOL_UDP-level
// segmentation offload (UDP_SEGMENT/UDP_GRO) landed in Linux 4.18/5.0; both
// are probed at socket setup and the engine degrades per-feature.
const (
	solUDP      = 17  // IPPROTO_UDP as a setsockopt level
	udpSegment  = 103 // UDP_SEGMENT: kernel splits one buffer into packets
	udpGRO      = 104 // UDP_GRO: kernel coalesces packets into one buffer
	soReusePort = 0xf // SO_REUSEPORT

	// maxGSOSegs is the kernel's UDP_MAX_SEGMENTS; one GSO super-packet may
	// also not exceed the UDP payload limit, so 1472-byte frames cap at 44.
	maxGSOSegs    = 64
	maxUDPPayload = 65507
)

// mmsghdr mirrors struct mmsghdr: a Msghdr plus the kernel-written byte
// count, padded to 8-byte alignment (64 bytes total on these arches).
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// batchUDP is the Linux batched UDP engine. Socket 0 carries all sends
// (single frames via the netpoller, batches via sendmmsg with per-message
// GSO); receive is sharded across SO_REUSEPORT sockets, each draining a
// recvmmsg vector in its own loop and splitting GRO-coalesced buffers back
// into wire-sized frames before delivery.
type batchUDP struct {
	conns []*net.UDPConn
	raws  []syscall.RawConn
	self  *udpAddr
	v6    bool // socket family is AF_INET6
	gso   bool
	gro   bool

	mu     sync.RWMutex
	recv   Receiver
	closed bool
	wg     sync.WaitGroup

	// Send-side address interning for foreign Addr implementations; each
	// receive shard keeps its own unshared map instead.
	peersMu sync.Mutex
	peers   map[netip.AddrPort]*udpAddr

	// sendMu serializes SendBatch so the pooled vector below is reused
	// without allocation; batches come from one flusher goroutine anyway.
	// sendFn is the persistent RawConn.Write callback: it reads sendPos and
	// writes sendN/sendErrno (all guarded by sendMu) so no closure or capture
	// is heap-allocated per syscall.
	sendMu    sync.Mutex
	sv        sendVec
	sendFn    func(fd uintptr) bool
	sendPos   int
	sendN     int
	sendErrno syscall.Errno

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
		peers: make(map[netip.AddrPort]*udpAddr),
	}
	ap := la.AddrPort().Addr()
	b.v6 = !ap.Is4() && !ap.Is4In6()
	b.sendFn = func(fd uintptr) bool {
		sv := &b.sv
		r, _, e := syscall.Syscall6(sysSENDMMSG, fd,
			uintptr(unsafe.Pointer(&sv.hdrs[b.sendPos])), uintptr(len(sv.hdrs)-b.sendPos),
			syscall.MSG_DONTWAIT, 0, 0)
		if e == syscall.EAGAIN {
			return false
		}
		b.sendN, b.sendErrno = int(r), e
		return true
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

	// Probe GSO on the send socket: setting UDP_SEGMENT to 0 (disabled) is
	// a no-op on supporting kernels and ENOPROTOOPT otherwise.
	_ = b.raws[0].Control(func(fd uintptr) {
		b.gso = syscall.SetsockoptInt(int(fd), solUDP, udpSegment, 0) == nil
	})
	// Enable GRO on every receive socket; all must accept for b.gro.
	b.gro = true
	for _, raw := range b.raws {
		ok := false
		_ = raw.Control(func(fd uintptr) {
			ok = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1) == nil
		})
		if !ok {
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

// peer interns ap for the send path (shard read loops keep their own maps).
func (b *batchUDP) peer(ap netip.AddrPort) *udpAddr {
	if ap.Addr().Is4In6() {
		ap = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	}
	b.peersMu.Lock()
	a := b.peers[ap]
	if a == nil {
		a = &udpAddr{ap: ap, str: ap.String()}
		b.peers[ap] = a
	}
	b.peersMu.Unlock()
	return a
}

func (b *batchUDP) destAddrPort(dst Addr) (netip.AddrPort, error) {
	switch a := dst.(type) {
	case *udpAddr:
		return a.ap, nil
	case *net.UDPAddr:
		return a.AddrPort(), nil
	default:
		if ap, err := netip.ParseAddrPort(dst.String()); err == nil {
			return b.peer(ap).ap, nil
		}
		ua, err := net.ResolveUDPAddr("udp", dst.String())
		if err != nil {
			return netip.AddrPort{}, err
		}
		return b.peer(ua.AddrPort()).ap, nil
	}
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

// ---------------------------------------------------------------------------
// Batched send: sendmmsg with per-message UDP_SEGMENT (GSO)

// msgDesc is one wire message to build: frames[start:end] to one
// destination. nframes > 1 means a GSO super-packet of seg-byte segments
// (the last frame may be shorter).
type msgDesc struct {
	ap         netip.AddrPort
	start, end int
	seg        int
}

// sendVec is the pooled scratch for one SendBatch: every slice is grown to
// need, pointers are captured only after all growth is done.
type sendVec struct {
	msgs  []msgDesc
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet6
	ctrls [][]byte
}

const gsoCtrlLen = 24 // CmsgSpace(2) on 64-bit: 16-byte header + 2 + pad

// SendBatch implements BatchSender. Frames are grouped into maximal runs of
// consecutive same-destination, same-size frames (one shorter trailing
// frame allowed — the GSO contract), each run becoming one kernel message;
// the whole batch then goes out in as few sendmmsg calls as possible.
// Submission order is preserved exactly, so per-peer ordering holds.
func (b *batchUDP) SendBatch(frames []Frame) (int, error) {
	if len(frames) == 0 {
		return 0, nil
	}
	if b.isClosed() {
		return 0, ErrClosed
	}
	b.sendMu.Lock()
	defer b.sendMu.Unlock()

	// Phase 1: resolve destinations and cut the batch into messages.
	// Stop at the first locally-invalid frame; everything before it sends.
	accepted := len(frames)
	var ferr error
	sv := &b.sv
	sv.msgs = sv.msgs[:0]
	for i := 0; i < accepted; {
		if len(frames[i].Data) > UDPMaxFrame {
			accepted, ferr = i, ErrFrameTooLarge
			break
		}
		ap, err := b.destAddrPort(frames[i].Dst)
		if err != nil {
			accepted, ferr = i, err
			break
		}
		seg := len(frames[i].Data)
		j := i + 1
		if b.gso && seg > 0 {
			lim := maxUDPPayload / seg
			if lim > maxGSOSegs {
				lim = maxGSOSegs
			}
			for j < accepted && j-i < lim {
				f := &frames[j]
				if len(f.Data) > seg || !sameDest(b, f.Dst, ap) {
					break
				}
				j++
				if len(frames[j-1].Data) < seg {
					break // shorter frame must end the super-packet
				}
			}
		}
		sv.msgs = append(sv.msgs, msgDesc{ap: ap, start: i, end: j, seg: seg})
		i = j
	}

	// Phase 2: size the flat arrays, then fill — no growth after this.
	niov := 0
	for _, m := range sv.msgs {
		niov += m.end - m.start
	}
	if cap(sv.hdrs) < len(sv.msgs) {
		sv.hdrs = make([]mmsghdr, len(sv.msgs))
		sv.names = make([]syscall.RawSockaddrInet6, len(sv.msgs))
		sv.ctrls = make([][]byte, len(sv.msgs))
	}
	sv.hdrs = sv.hdrs[:len(sv.msgs)]
	sv.names = sv.names[:len(sv.msgs)]
	sv.ctrls = sv.ctrls[:len(sv.msgs)]
	if cap(sv.iovs) < niov {
		sv.iovs = make([]syscall.Iovec, niov)
	}
	sv.iovs = sv.iovs[:niov]

	iov := 0
	for mi := range sv.msgs {
		m := &sv.msgs[mi]
		hdr := &sv.hdrs[mi]
		*hdr = mmsghdr{}
		namelen := fillName(&sv.names[mi], m.ap, b.v6)
		hdr.hdr.Name = (*byte)(unsafe.Pointer(&sv.names[mi]))
		hdr.hdr.Namelen = namelen
		hdr.hdr.Iov = &sv.iovs[iov]
		hdr.hdr.Iovlen = uint64(m.end - m.start)
		for fi := m.start; fi < m.end; fi++ {
			data := frames[fi].Data
			if len(data) > 0 {
				sv.iovs[iov].Base = &data[0]
			} else {
				sv.iovs[iov].Base = nil
			}
			sv.iovs[iov].SetLen(len(data))
			iov++
		}
		if m.end-m.start > 1 {
			// GSO super-packet: tell the kernel the segment size.
			if sv.ctrls[mi] == nil {
				sv.ctrls[mi] = make([]byte, gsoCtrlLen)
			}
			ctrl := sv.ctrls[mi]
			ch := (*syscall.Cmsghdr)(unsafe.Pointer(&ctrl[0]))
			ch.Level = solUDP
			ch.Type = udpSegment
			ch.SetLen(syscall.CmsgLen(2))
			*(*uint16)(unsafe.Pointer(&ctrl[syscall.CmsgLen(0)])) = uint16(m.seg)
			hdr.hdr.Control = &ctrl[0]
			hdr.hdr.SetControllen(gsoCtrlLen)
		}
	}

	// Phase 3: drain the vector through sendmmsg, parking on the netpoller
	// when the socket buffer is full. Per-message transient errors (ICMP
	// reflections and the like) drop that message — UDP semantics — and
	// keep the batch moving.
	sent := 0
	for sent < len(sv.hdrs) {
		b.sendPos, b.sendN, b.sendErrno = sent, 0, 0
		werr := b.raws[0].Write(b.sendFn)
		n, serr := b.sendN, b.sendErrno
		runtime.KeepAlive(frames)
		if werr != nil {
			return framesIn(sv.msgs[:sent]), werr
		}
		if serr != 0 {
			b.sendErrors.Add(1)
			sent++ // skip the refusing message, count its frames as dropped
			continue
		}
		if n <= 0 {
			b.sendErrors.Add(1)
			sent++
			continue
		}
		sentFrames := framesIn(sv.msgs[sent : sent+n])
		b.observeSendBatch(sentFrames)
		for _, m := range sv.msgs[sent : sent+n] {
			if m.end-m.start > 1 {
				b.gsoSends.Add(1)
			}
		}
		sent += n
	}
	return accepted, ferr
}

func framesIn(msgs []msgDesc) int {
	n := 0
	for _, m := range msgs {
		n += m.end - m.start
	}
	return n
}

// sameDest reports whether dst resolves to ap without erroring; used only
// to extend GSO runs, so a resolution failure just ends the run.
func sameDest(b *batchUDP, dst Addr, ap netip.AddrPort) bool {
	got, err := b.destAddrPort(dst)
	return err == nil && got == ap
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
		bufSize = 65535
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
		seg := len(buf)
		if b.gro && m.hdr.Controllen > 0 {
			ctl := int(m.hdr.Controllen)
			if ctl > len(vec.ctrls[i]) {
				ctl = len(vec.ctrls[i])
			}
			if s := groSegSize(vec.ctrls[i][:ctl]); s > 0 {
				seg = s
			}
		}
		addr := peers[src]
		if addr == nil {
			addr = &udpAddr{ap: src, str: src.String()}
			peers[src] = addr
		}
		if seg > 0 && len(buf) > seg {
			b.groSplits.Add(int64((len(buf) + seg - 1) / seg))
		}
		if len(buf) == 0 {
			if recv != nil {
				recv(addr, buf)
			}
			total++
			continue
		}
		for off := 0; off < len(buf); off += seg {
			end := off + seg
			if end > len(buf) {
				end = len(buf)
			}
			frame := buf[off:end]
			if len(frame) > UDPMaxFrame {
				b.oversizeDrops.Add(1)
				continue
			}
			if recv != nil {
				recv(addr, frame)
			}
			total++
		}
	}
	if total > 0 {
		b.observeRecvBatch(total)
	}
}

// groSegSize extracts the UDP_GRO segment size from a control buffer, or 0.
func groSegSize(ctrl []byte) int {
	msgs, err := syscall.ParseSocketControlMessage(ctrl)
	if err != nil {
		return 0
	}
	for _, m := range msgs {
		if m.Header.Level == solUDP && m.Header.Type == udpGRO && len(m.Data) >= 4 {
			return int(int32(binary.NativeEndian.Uint32(m.Data)))
		}
	}
	return 0
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
