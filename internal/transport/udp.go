package transport

import (
	"errors"
	"net"
	"net/netip"
	"sync"

	"fireflyrpc/internal/buffer"
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

// UDP is a Transport over a real UDP socket: the per-frame datapath, one
// write syscall per Send and no goroutine of its own on the send side. On
// Linux the kernel's segmentation offload batches
// what the protocol hands over as one burst: SendBatch sends each run of
// equal frames as one UDP_SEGMENT (GSO) message, and the read loop takes
// a UDP_GRO-coalesced burst in one read and splits it back into frames.
// The batched engine (ListenUDPBatch) is the high-throughput alternative
// for many independent small sends; this path stays the simple, portable
// default.
type UDP struct {
	conn *net.UDPConn
	self *udpAddr

	mu     sync.RWMutex
	recv   Receiver
	closed bool
	done   chan struct{}

	peerTable
	udpOffload // GSO and GRO state, empty where the platform has neither
	counters
}

// ListenUDP opens a UDP transport on addr ("host:port"; ":0" picks a port).
func ListenUDP(addr string) (*UDP, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	u := &UDP{
		conn: conn,
		self: newUDPAddr(conn.LocalAddr().(*net.UDPAddr).AddrPort()),
		done: make(chan struct{}),
	}
	u.initOffload()
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

func (u *UDP) readLoop() {
	defer close(u.done)
	buf := buffer.Map(u.recvBufLen())
	defer buffer.Unmap(buf)
	oob := make([]byte, 64)
	for {
		n, seg, src, err := u.read(buf, oob)
		if err != nil {
			if errors.Is(err, net.ErrClosed) || u.isClosed() {
				return
			}
			// Transient (ICMP-reflected, buffer pressure): count and go on.
			u.recvErrors.Add(1)
			continue
		}
		u.mu.RLock()
		recv := u.recv
		u.mu.RUnlock()
		if got := u.deliverSegments(recv, u.peer(src), buf[:n], seg); got > 0 {
			u.observeRecvBatch(got)
		}
	}
}

// deliverSegments hands one received buffer to recv as frames: cut every
// seg bytes when the kernel coalesced a burst into it (UDP_GRO; the last
// frame may be shorter), whole when seg is 0 or covers the buffer. A frame
// over UDPMaxFrame is counted and dropped, so nothing above the transport,
// fault injection included, ever sees a super-packet. It returns the
// frames delivered.
func (c *counters) deliverSegments(recv Receiver, src Addr, buf []byte, seg int) int {
	if seg <= 0 || seg >= len(buf) {
		if len(buf) > UDPMaxFrame {
			c.oversizeDrops.Add(1)
			return 0
		}
		if recv != nil {
			recv(src, buf)
		}
		return 1
	}
	c.groSplits.Add(int64((len(buf) + seg - 1) / seg))
	n := 0
	for off := 0; off < len(buf); off += seg {
		frame := buf[off:min(off+seg, len(buf))]
		if len(frame) > UDPMaxFrame {
			c.oversizeDrops.Add(1)
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

// sendEach is SendBatch without segmentation offload: one Send per frame.
func (u *UDP) sendEach(frames []Frame) (int, error) {
	for i, f := range frames {
		if err := u.Send(f.Dst, f.Data); err != nil {
			return i, err
		}
	}
	return len(frames), nil
}

// BatchEnabled implements BatchSender. It is false: SendBatch works, and
// on Linux sends a burst in a few GSO messages, but the per-frame
// transport has no use for a send queue gathering independent sends.
func (u *UDP) BatchEnabled() bool { return false }

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
