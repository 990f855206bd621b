package transport

import (
	"net"
	"net/netip"
	"sync"

	"fireflyrpc/internal/wire"
)

// UDPMaxFrame keeps RPC frames within a single Ethernet packet, as the
// Firefly did: 32-byte RPC header + 1440-byte payload = 1472 bytes, which
// with 20 IP + 8 UDP + 14 Ethernet is exactly the 1514-byte maximum frame.
const UDPMaxFrame = wire.RPCHeaderLen + wire.MaxSinglePacketPayload

// udpAddr is the canonical address handed to receivers and returned by
// LocalAddr/ResolveUDPAddr. It caches the printable form so Addr.String()
// never allocates on a hot path, and the transport interns one value per
// peer so the same pointer arrives with every packet — letting upper layers
// key maps by the Addr itself (or its string, taken for free) instead of
// formatting an address per frame.
type udpAddr struct {
	ap  netip.AddrPort
	str string
}

func newUDPAddr(ap netip.AddrPort) *udpAddr {
	// Normalize IPv4-mapped IPv6 (what an IPv4 packet arrives as on a
	// dual-stack socket) so interning and dialing agree on one form.
	if ap.Addr().Is4In6() {
		ap = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	}
	return &udpAddr{ap: ap, str: ap.String()}
}

func (a *udpAddr) String() string  { return a.str }
func (a *udpAddr) Network() string { return "udp" }

// UDP is a Transport over a real UDP socket, the one UDP socket type: one
// write syscall per Send, no goroutine of its own on the send side, and
// one read loop. On Linux the read loop drains a recvmmsg vector of
// buffers mapped outside the heap, splitting each UDP_GRO-coalesced burst
// back into frames, and SendBatch hands a burst to the kernel in sendmmsg
// calls, each run of equal frames to one peer as one UDP_SEGMENT (GSO)
// message where the kernel accepts it. Elsewhere the read loop takes one
// datagram per read and SendBatch is a loop over Send.
type UDP struct {
	conn  *net.UDPConn
	self  *udpAddr
	batch bool // BatchEnabled: ListenUDPBatch where sendmmsg exists

	mu     sync.RWMutex
	recv   Receiver
	closed bool
	done   chan struct{}

	peerTable
	udpOffload // the platform's vector I/O state, empty where it has none
	counters
}

// UDPOptions configures ListenUDPBatch. It has no fields; the socket needs
// no tuning.
type UDPOptions struct{}

// ListenUDP opens a UDP transport on addr ("host:port"; ":0" picks a port).
// Its BatchEnabled is false, so the protocol sends independent frames at
// once and hands only its fragment windows to SendBatch.
func ListenUDP(addr string) (*UDP, error) { return listenUDP(addr, false) }

// ListenUDPBatch is ListenUDP with one difference: where SendBatch is a
// vector send (Linux), BatchEnabled reports true, so the protocol gathers
// independent sends in its send queue and hands each gathering to
// SendBatch. Where SendBatch is a loop over Send, BatchEnabled stays false
// and the two are the same.
func ListenUDPBatch(addr string, _ UDPOptions) (*UDP, error) { return listenUDP(addr, vectorIO) }

func listenUDP(addr string, batch bool) (*UDP, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	u := &UDP{
		conn:  conn,
		self:  newUDPAddr(conn.LocalAddr().(*net.UDPAddr).AddrPort()),
		batch: batch,
		done:  make(chan struct{}),
	}
	if err := u.initOffload(); err != nil {
		conn.Close()
		return nil, err
	}
	go u.readLoop()
	return u, nil
}

// ResolveUDPAddr names a peer for Send.
func ResolveUDPAddr(addr string) (Addr, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	return newUDPAddr(ua.AddrPort()), nil
}

// peerTable interns peer addresses, so that the same *udpAddr arrives with
// every packet from a peer and repeated sends to a foreign Addr type do not
// re-resolve its string.
type peerTable struct {
	peersMu sync.Mutex
	peers   map[netip.AddrPort]*udpAddr
}

// peer returns the interned address for ap, creating it on first contact.
func (t *peerTable) peer(ap netip.AddrPort) *udpAddr {
	if ap.Addr().Is4In6() {
		ap = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	}
	t.peersMu.Lock()
	a := t.peers[ap]
	if a == nil {
		if t.peers == nil {
			t.peers = make(map[netip.AddrPort]*udpAddr)
		}
		a = &udpAddr{ap: ap, str: ap.String()}
		t.peers[ap] = a
	}
	t.peersMu.Unlock()
	return a
}

// destAddrPort maps an Addr to the wire destination. Foreign Addr types are
// parsed once and interned through peer, so repeated sends to the same
// peer never re-resolve the string (names that aren't literal ip:port fall
// back to the resolver, then intern the result).
func (t *peerTable) destAddrPort(dst Addr) (netip.AddrPort, error) {
	switch a := dst.(type) {
	case *udpAddr:
		return a.ap, nil
	case *net.UDPAddr:
		return a.AddrPort(), nil
	default:
		if ap, err := netip.ParseAddrPort(dst.String()); err == nil {
			return t.peer(ap).ap, nil
		}
		ua, err := net.ResolveUDPAddr("udp", dst.String())
		if err != nil {
			return netip.AddrPort{}, err
		}
		return t.peer(ua.AddrPort()).ap, nil
	}
}

func (u *UDP) isClosed() bool {
	u.mu.RLock()
	closed := u.closed
	u.mu.RUnlock()
	return closed
}

// deliverSegments hands one received buffer to recv as frames: cut every
// seg bytes when the kernel coalesced a burst into it (UDP_GRO; the last
// frame may be shorter), whole when seg is 0 or covers the buffer. A frame
// over UDPMaxFrame is counted and dropped, so nothing above the transport,
// fault injection included, ever sees a super-packet. It returns the
// frames delivered.
func (u *UDP) deliverSegments(recv Receiver, src Addr, buf []byte, seg int) int {
	if seg <= 0 || seg >= len(buf) {
		if len(buf) > UDPMaxFrame {
			u.oversizeDrops.Add(1)
			return 0
		}
		if recv != nil {
			recv(src, buf)
		}
		return 1
	}
	u.groSplits.Add(int64((len(buf) + seg - 1) / seg))
	n := 0
	for off := 0; off < len(buf); off += seg {
		frame := buf[off:min(off+seg, len(buf))]
		if len(frame) > UDPMaxFrame {
			u.oversizeDrops.Add(1)
			continue
		}
		if recv != nil {
			recv(src, frame)
		}
		n++
	}
	return n
}

// Send implements Transport.
func (u *UDP) Send(dst Addr, frame []byte) error {
	if u.isClosed() {
		return ErrClosed
	}
	if len(frame) > UDPMaxFrame {
		return ErrFrameTooLarge
	}
	ap, err := u.destAddrPort(dst)
	if err != nil {
		return err
	}
	if _, err := u.conn.WriteToUDPAddrPort(frame, ap); err != nil {
		u.sendErrors.Add(1)
		return err
	}
	u.observeSendBatch(1)
	return nil
}

// BatchEnabled implements BatchSender: true only for a ListenUDPBatch
// socket where SendBatch is a vector send.
func (u *UDP) BatchEnabled() bool { return u.batch }

// TransportStats implements StatsReporter.
func (u *UDP) TransportStats() (Stats, bool) { return u.snapshot(), true }

// SetReceiver implements Transport.
func (u *UDP) SetReceiver(r Receiver) {
	u.mu.Lock()
	u.recv = r
	u.mu.Unlock()
}

// LocalAddr implements Transport.
func (u *UDP) LocalAddr() Addr { return u.self }

// MaxFrame implements Transport.
func (u *UDP) MaxFrame() int { return UDPMaxFrame }

// Close implements Transport.
func (u *UDP) Close() error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return nil
	}
	u.closed = true
	u.mu.Unlock()
	err := u.conn.Close()
	<-u.done
	return err
}
