//go:build linux && (amd64 || arm64)

package transport

import (
	"encoding/binary"
	"errors"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// The UDP transport's segmentation offload on Linux: the send half cuts a
// batch into runs and hands each run to the kernel as one UDP_SEGMENT (GSO)
// message, and the receive half reads the segment size of a
// UDP_GRO-coalesced buffer so it can be split back into frames.

// Kernel constants the stdlib syscall package doesn't export. SOL_UDP-level
// segmentation offload (UDP_SEGMENT/UDP_GRO) landed in Linux 4.18/5.0; both
// are probed at socket setup and the transport degrades per feature.
const (
	solUDP     = 17  // IPPROTO_UDP as a setsockopt level
	udpSegment = 103 // UDP_SEGMENT: kernel splits one buffer into packets
	udpGRO     = 104 // UDP_GRO: kernel coalesces packets into one buffer

	// maxGSOSegs is the kernel's UDP_MAX_SEGMENTS; one GSO super-packet may
	// also not exceed the UDP payload limit, so 1472-byte frames cap at 44.
	maxGSOSegs    = 64
	maxUDPPayload = 65507

	// groBufLen holds the largest buffer UDP_GRO coalesces into.
	groBufLen = 65535
)

// mmsghdr mirrors struct mmsghdr: a Msghdr plus the kernel-written byte
// count, padded to 8-byte alignment (64 bytes total on these arches).
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// probeGSO reports whether the socket accepts UDP_SEGMENT: setting it to 0
// (disabled) is a no-op on supporting kernels and ENOPROTOOPT otherwise.
func probeGSO(raw syscall.RawConn) bool {
	ok := false
	_ = raw.Control(func(fd uintptr) {
		ok = syscall.SetsockoptInt(int(fd), solUDP, udpSegment, 0) == nil
	})
	return ok
}

// enableGRO turns UDP_GRO on and reports whether the kernel accepted it.
func enableGRO(raw syscall.RawConn) bool {
	ok := false
	_ = raw.Control(func(fd uintptr) {
		ok = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1) == nil
	})
	return ok
}

// groSegSize returns the UDP_GRO segment size carried in a received control
// buffer, or 0 when there is none. The cmsgs are walked by hand, since
// syscall.ParseSocketControlMessage allocates for every buffer. On these
// 64-bit arches a cmsghdr is a uint64 length, an int32 level and an int32
// type, and every cmsg starts 8-byte aligned.
func groSegSize(ctrl []byte) int {
	const hdrLen = syscall.SizeofCmsghdr
	for len(ctrl) >= hdrLen {
		l := binary.NativeEndian.Uint64(ctrl)
		if l < hdrLen || l > uint64(len(ctrl)) {
			return 0
		}
		level := int32(binary.NativeEndian.Uint32(ctrl[8:]))
		typ := int32(binary.NativeEndian.Uint32(ctrl[12:]))
		if level == solUDP && typ == udpGRO && l >= hdrLen+4 {
			return int(int32(binary.NativeEndian.Uint32(ctrl[hdrLen:])))
		}
		next := (l + 7) &^ 7
		if next >= uint64(len(ctrl)) {
			return 0
		}
		ctrl = ctrl[next:]
	}
	return 0
}

// errGSORefused reports that the kernel refused a GSO message (EIO when the
// device cannot checksum it, EINVAL when the socket or path cannot segment
// it). GSO is then off for good on that sender, and the frames from the
// refused message on are left for the caller to resend without it.
var errGSORefused = errors.New("transport: kernel refused UDP_SEGMENT")

// gsoSender sends batches through sendmmsg, one kernel message per run of
// frames and each run of two or more frames one GSO super-packet, parking
// on the netpoller when the socket buffer is full.
type gsoSender struct {
	raw syscall.RawConn
	v6  bool        // socket family is AF_INET6
	gso atomic.Bool // UDP_SEGMENT works on this socket

	// mu serializes sendBatch so the vector below is reused without
	// allocation. fn is the persistent RawConn.Write callback: it reads pos
	// and writes n/errno (all guarded by mu) so no closure or capture is
	// heap-allocated per syscall.
	mu    sync.Mutex
	sv    sendVec
	fn    func(fd uintptr) bool
	pos   int
	n     int
	errno syscall.Errno
}

func (s *gsoSender) init(raw syscall.RawConn, v6, gso bool) {
	s.raw, s.v6 = raw, v6
	s.gso.Store(gso)
	s.fn = func(fd uintptr) bool {
		sv := &s.sv
		r, _, e := syscall.Syscall6(sysSENDMMSG, fd,
			uintptr(unsafe.Pointer(&sv.hdrs[s.pos])), uintptr(len(sv.hdrs)-s.pos),
			syscall.MSG_DONTWAIT, 0, 0)
		if e == syscall.EAGAIN {
			return false
		}
		s.n, s.errno = int(r), e
		return true
	}
}

// msgDesc is one wire message to build: frames[start:end] to one
// destination. end-start > 1 means a GSO super-packet of seg-byte segments
// (the last frame may be shorter).
type msgDesc struct {
	ap         netip.AddrPort
	start, end int
	seg        int
}

// sendVec is the reused scratch for one sendBatch: every slice is grown to
// need, pointers are captured only after all growth is done.
type sendVec struct {
	msgs  []msgDesc
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet6
	ctrls [][]byte
}

const gsoCtrlLen = 24 // CmsgSpace(2) on 64-bit: 16-byte header + 2 + pad

// sendBatch transmits frames. They are grouped into maximal runs of
// consecutive same-destination, same-size frames (one shorter trailing
// frame allowed — the GSO contract), each run becoming one kernel message;
// the whole batch then goes out in as few sendmmsg calls as possible.
// Submission order is preserved exactly, so per-peer ordering holds. It
// returns the frames accepted and the first local, permanent error, or
// errGSORefused with the count of frames handled before the refused
// message.
func (s *gsoSender) sendBatch(frames []Frame, r *peerTable, c *counters) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	accepted, ferr := s.build(frames, r)
	sv := &s.sv
	sent := 0
	for sent < len(sv.hdrs) {
		s.pos, s.n, s.errno = sent, 0, 0
		werr := s.raw.Write(s.fn)
		n, serr := s.n, s.errno
		runtime.KeepAlive(frames)
		if werr != nil {
			return framesIn(sv.msgs[:sent]), werr
		}
		if serr != 0 {
			m := sv.msgs[sent]
			if m.end-m.start > 1 && (serr == syscall.EIO || serr == syscall.EINVAL) {
				s.gso.Store(false)
				return m.start, errGSORefused
			}
			// A per-message transient error (an ICMP reflection and the
			// like) drops that message — UDP semantics — and the batch
			// moves on.
			c.sendErrors.Add(1)
			sent++
			continue
		}
		if n <= 0 {
			c.sendErrors.Add(1)
			sent++
			continue
		}
		c.observeSendBatch(framesIn(sv.msgs[sent : sent+n]))
		for _, m := range sv.msgs[sent : sent+n] {
			if m.end-m.start > 1 {
				c.gsoSends.Add(1)
			}
		}
		sent += n
	}
	return accepted, ferr
}

// build resolves destinations, cuts the batch into messages and fills the
// kernel vector (s.mu held). It stops at the first locally invalid frame:
// everything before it is built, and its index and error are returned.
func (s *gsoSender) build(frames []Frame, r *peerTable) (int, error) {
	accepted := len(frames)
	var ferr error
	gso := s.gso.Load()
	sv := &s.sv
	sv.msgs = sv.msgs[:0]
	for i := 0; i < accepted; {
		if len(frames[i].Data) > UDPMaxFrame {
			accepted, ferr = i, ErrFrameTooLarge
			break
		}
		ap, err := r.destAddrPort(frames[i].Dst)
		if err != nil {
			accepted, ferr = i, err
			break
		}
		seg := len(frames[i].Data)
		j := i + 1
		if gso && seg > 0 {
			lim := min(maxUDPPayload/seg, maxGSOSegs)
			for j < accepted && j-i < lim {
				f := &frames[j]
				if len(f.Data) > seg {
					break
				}
				if got, err := r.destAddrPort(f.Dst); err != nil || got != ap {
					break
				}
				j++
				if len(f.Data) < seg {
					break // a shorter frame must end the super-packet
				}
			}
		}
		sv.msgs = append(sv.msgs, msgDesc{ap: ap, start: i, end: j, seg: seg})
		i = j
	}

	// Size the flat arrays, then fill — no growth after this.
	niov := framesIn(sv.msgs)
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
		namelen := fillName(&sv.names[mi], m.ap, s.v6)
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
	return accepted, ferr
}

func framesIn(msgs []msgDesc) int {
	n := 0
	for _, m := range msgs {
		n += m.end - m.start
	}
	return n
}

// fillName writes ap into a send slot in the socket's family and returns
// its length.
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

// Ports are big-endian in a sockaddr regardless of host order, so they go
// through explicit byte views.

func sockPort(p *uint16) uint16 {
	b := (*[2]byte)(unsafe.Pointer(p))
	return uint16(b[0])<<8 | uint16(b[1])
}

func setSockPort(p *uint16, port uint16) {
	b := (*[2]byte)(unsafe.Pointer(p))
	b[0] = byte(port >> 8)
	b[1] = byte(port)
}
