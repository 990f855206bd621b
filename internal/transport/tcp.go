package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"time"
)

// TCP is a Transport over multiplexed TCP streams: one connection per peer
// pair carries every RPC frame in both directions, length-prefix framed
// back into the same ≤1472-byte contract the datagram transports obey, so
// the protocol layer above cannot tell the difference. The stream is
// reliable, which makes the protocol's retransmissions cheap duplicates a
// server's duplicate suppression absorbs — the retransmission engine stays
// on anyway, because it is also the liveness detector for a dead peer or a
// connection the kernel has not yet declared broken.
//
// Connection management: a dialer opens one connection to the peer's
// listen address and prefixes it with a preface naming its *own* listen
// address, so the acceptor keys the connection by the peer's canonical name
// rather than its ephemeral port — replies then flow back over the same
// stream, and both directions agree on each other's Addr (the contract the
// per-peer channel map above keys on). Writes take a per-peer mutex into a
// buffered writer; Send flushes per frame, SendBatch writes the whole
// burst and flushes once per touched peer, which is where a stream
// transport's syscall amortization comes from. A lost connection turns
// Sends into silent drops (UDP semantics; the protocol retransmits) while
// a single background dialer per peer re-establishes it with exponential
// backoff.
type TCP struct {
	ln   net.Listener
	self *tcpAddr

	mu     sync.RWMutex
	recv   Receiver
	closed bool
	peers  map[string]*tcpPeer

	connsMu sync.Mutex
	conns   map[net.Conn]struct{}

	wg sync.WaitGroup

	counters
}

// TCPMaxFrame keeps stream-framed RPC frames within the same single-packet
// budget as the datagram transports, so fragmentation decisions and buffer
// pools behave identically over every transport.
const TCPMaxFrame = UDPMaxFrame

// Stream timing.
const (
	// tcpDialTimeout bounds one connection attempt.
	tcpDialTimeout = 2 * time.Second
	// tcpReconnectMin/tcpReconnectMax bound the redial backoff after a
	// failed attempt; the delay doubles between attempts.
	tcpReconnectMin = 20 * time.Millisecond
	tcpReconnectMax = time.Second
	// tcpWriteTimeout bounds one flush. A peer that stops reading long
	// enough to fill both kernel buffers would otherwise wedge the writer —
	// and with it a receive callback that sends — forever; on expiry the
	// connection is dropped and redialed, and the lost frames are the
	// protocol's retransmissions to recover.
	tcpWriteTimeout = 10 * time.Second
)

// tcpAddr is the canonical peer name: the peer's listen address as a
// string, cached so Addr.String() never allocates. One value is interned
// per peer, so the same pointer arrives with every frame.
type tcpAddr struct{ str string }

func (a *tcpAddr) String() string  { return a.str }
func (a *tcpAddr) Network() string { return "tcp" }

// ResolveTCPAddr names a peer (its listen address) for Send.
func ResolveTCPAddr(addr string) (Addr, error) {
	if _, _, err := net.SplitHostPort(addr); err != nil {
		return nil, err
	}
	return &tcpAddr{str: addr}, nil
}

// tcpPeer is the per-peer connection state: the current outbound stream
// behind the per-peer write mutex, and the redial bookkeeping.
type tcpPeer struct {
	t    *TCP
	addr *tcpAddr

	mu      sync.Mutex // the per-peer write mutex
	conn    net.Conn
	bw      *bufio.Writer
	dialing bool
	// pending holds frames sent while no stream is up (first contact, or
	// mid-reconnect), flushed when one is adopted. Without it every cold
	// start costs the protocol a full retransmission interval; with it the
	// first call's frames ride the fresh connection immediately. Bounded:
	// past the cap frames drop, UDP-style, and retransmission recovers.
	pending [][]byte
}

// maxPendingFrames bounds the frames parked per peer while dialing.
const maxPendingFrames = 32

// prefaceMagic opens every dialed connection, followed by the dialer's
// canonical listen address (uint16 length + bytes).
var prefaceMagic = [6]byte{'F', 'F', 'T', 'C', 'P', '1'}

// ListenTCP opens a stream transport listening on addr ("host:port";
// ":0" picks a port).
func ListenTCP(addr string) (*TCP, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	t := &TCP{
		ln:    ln,
		self:  &tcpAddr{str: ln.Addr().String()},
		peers: make(map[string]*tcpPeer),
		conns: make(map[net.Conn]struct{}),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// peerOf returns the connection state for the canonical peer name,
// creating it on first contact.
func (t *TCP) peerOf(key string) *tcpPeer {
	t.mu.RLock()
	p := t.peers[key]
	t.mu.RUnlock()
	if p != nil {
		return p
	}
	t.mu.Lock()
	p = t.peers[key]
	if p == nil {
		p = &tcpPeer{t: t, addr: &tcpAddr{str: key}}
		t.peers[key] = p
	}
	t.mu.Unlock()
	return p
}

func (t *TCP) isClosed() bool {
	t.mu.RLock()
	closed := t.closed
	t.mu.RUnlock()
	return closed
}

// trackConn registers a live connection for Close; it reports false when
// the transport is already closed (the caller must close the conn).
func (t *TCP) trackConn(conn net.Conn) bool {
	t.connsMu.Lock()
	defer t.connsMu.Unlock()
	if t.isClosed() {
		return false
	}
	t.conns[conn] = struct{}{}
	return true
}

func (t *TCP) untrackConn(conn net.Conn) {
	t.connsMu.Lock()
	delete(t.conns, conn)
	t.connsMu.Unlock()
}

// acceptLoop keys each inbound connection by its preface and feeds it to
// the shared read loop.
func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.serveAccepted(conn)
	}
}

func (t *TCP) serveAccepted(conn net.Conn) {
	defer t.wg.Done()
	_ = conn.SetReadDeadline(time.Now().Add(tcpDialTimeout + 3*time.Second))
	peerKey, err := readPreface(conn)
	if err != nil {
		conn.Close()
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	if !t.trackConn(conn) {
		conn.Close()
		return
	}
	p := t.peerOf(peerKey)
	// Adopt the inbound stream as the outbound one too: a pure responder
	// never dials, its results ride the caller's connection back.
	p.adopt(conn)
	t.readLoop(p, conn)
}

// adopt installs conn as the peer's outbound stream. An older stream, if
// any, is left to drain and die on its own — frames already in flight on
// it still deliver.
func (p *tcpPeer) adopt(conn net.Conn) {
	p.mu.Lock()
	p.adoptLocked(conn)
	p.mu.Unlock()
}

// adoptLocked installs conn and flushes any frames parked while no stream
// was up; p.mu held.
func (p *tcpPeer) adoptLocked(conn net.Conn) {
	p.conn = conn
	p.bw = bufio.NewWriterSize(conn, 64<<10)
	pend := p.pending
	p.pending = nil
	for _, f := range pend {
		if !p.writeFrameLocked(f) {
			return // stream died already; the rest are lost drops
		}
	}
	if len(pend) > 0 {
		p.flushLocked()
	}
}

// dropConnLocked abandons the current outbound stream after a write
// failure; p.mu held. The read loop on that conn will exit on its own.
func (p *tcpPeer) dropConnLocked(conn net.Conn) {
	conn.Close()
	if p.conn == conn {
		p.conn = nil
		p.bw = nil
	}
}

// readLoop frames the stream back into discrete ≤TCPMaxFrame frames and
// delivers them under the no-retain contract (one reused buffer).
func (t *TCP) readLoop(p *tcpPeer, conn net.Conn) {
	defer t.untrackConn(conn)
	br := bufio.NewReaderSize(conn, 64<<10)
	buf := make([]byte, TCPMaxFrame)
	var lenb [2]byte
	for {
		if _, err := io.ReadFull(br, lenb[:]); err != nil {
			break
		}
		n := int(binary.BigEndian.Uint16(lenb[:]))
		if n > TCPMaxFrame {
			// Framing is corrupt; nothing downstream can be trusted.
			t.oversizeDrops.Add(1)
			break
		}
		if _, err := io.ReadFull(br, buf[:n]); err != nil {
			if n > 0 {
				t.recvErrors.Add(1)
			}
			break
		}
		t.observeRecvBatch(1)
		t.mu.RLock()
		recv := t.recv
		t.mu.RUnlock()
		if recv != nil {
			recv(p.addr, buf[:n])
		}
	}
	conn.Close()
	p.mu.Lock()
	if p.conn == conn {
		p.conn = nil
		p.bw = nil
	}
	p.mu.Unlock()
}

// readPreface consumes the dialer's identification from a fresh inbound
// connection and returns its canonical listen address.
func readPreface(conn net.Conn) (string, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return "", err
	}
	if [6]byte(hdr[:6]) != prefaceMagic {
		return "", errors.New("transport: bad tcp preface")
	}
	n := int(binary.BigEndian.Uint16(hdr[6:8]))
	if n == 0 || n > 256 {
		return "", errors.New("transport: bad tcp preface address length")
	}
	addr := make([]byte, n)
	if _, err := io.ReadFull(conn, addr); err != nil {
		return "", err
	}
	return string(addr), nil
}

func writePreface(conn net.Conn, self string) error {
	buf := make([]byte, 0, 8+len(self))
	buf = append(buf, prefaceMagic[:]...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(self)))
	buf = append(buf, self...)
	_, err := conn.Write(buf)
	return err
}

// ensureDialLocked starts the background dialer once; p.mu held.
func (p *tcpPeer) ensureDialLocked() {
	if p.dialing || p.t.isClosed() {
		return
	}
	p.dialing = true
	p.t.wg.Add(1)
	go p.dialLoop()
}

// dialLoop re-establishes the outbound stream with exponential backoff,
// giving up only when the transport closes or a connection (dialed here,
// or accepted from the peer dialing us) is in place.
func (p *tcpPeer) dialLoop() {
	t := p.t
	defer t.wg.Done()
	backoff := tcpReconnectMin
	for {
		if t.isClosed() {
			p.mu.Lock()
			p.dialing = false
			p.mu.Unlock()
			return
		}
		p.mu.Lock()
		if p.conn != nil {
			// The peer dialed us in the meantime; its stream serves.
			p.dialing = false
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
		conn, err := net.DialTimeout("tcp", p.addr.str, tcpDialTimeout)
		if err == nil {
			err = writePreface(conn, t.self.str)
		}
		if err == nil {
			if !t.trackConn(conn) {
				conn.Close()
				p.mu.Lock()
				p.dialing = false
				p.mu.Unlock()
				return
			}
			p.mu.Lock()
			p.adoptLocked(conn)
			p.dialing = false
			p.mu.Unlock()
			t.wg.Add(1)
			go func() {
				defer t.wg.Done()
				t.readLoop(p, conn)
			}()
			return
		}
		if conn != nil {
			conn.Close()
		}
		time.Sleep(backoff)
		if backoff < tcpReconnectMax {
			backoff *= 2
		}
	}
}

// writeFrameLocked appends one length-prefixed frame to the peer's
// buffered writer; p.mu held. While no stream is up the frame is parked
// for the dialer (bounded; past the cap it drops, UDP-style).
func (p *tcpPeer) writeFrameLocked(frame []byte) bool {
	if p.conn == nil {
		p.ensureDialLocked()
		if len(p.pending) < maxPendingFrames {
			p.pending = append(p.pending, append([]byte(nil), frame...))
			return true
		}
		p.t.sendErrors.Add(1)
		return false
	}
	var lenb [2]byte
	binary.BigEndian.PutUint16(lenb[:], uint16(len(frame)))
	if _, err := p.bw.Write(lenb[:]); err != nil {
		p.t.sendErrors.Add(1)
		p.dropConnLocked(p.conn)
		return false
	}
	if _, err := p.bw.Write(frame); err != nil {
		p.t.sendErrors.Add(1)
		p.dropConnLocked(p.conn)
		return false
	}
	return true
}

// flushLocked pushes the buffered writer to the socket under the write
// deadline; p.mu held.
func (p *tcpPeer) flushLocked() {
	if p.conn == nil || p.bw == nil {
		return
	}
	conn := p.conn
	_ = conn.SetWriteDeadline(time.Now().Add(tcpWriteTimeout))
	if err := p.bw.Flush(); err != nil {
		p.t.sendErrors.Add(1)
		p.dropConnLocked(conn)
		return
	}
	_ = conn.SetWriteDeadline(time.Time{})
}

// Send implements Transport: one frame, one flush. Drops silently while
// the stream is down (the background dialer is already working on it);
// the protocol's retransmissions provide recovery, as over UDP.
func (t *TCP) Send(dst Addr, frame []byte) error {
	if t.isClosed() {
		return ErrClosed
	}
	if len(frame) > TCPMaxFrame {
		return ErrFrameTooLarge
	}
	p := t.peerOf(dst.String())
	p.mu.Lock()
	ok := p.writeFrameLocked(frame)
	if ok {
		p.flushLocked()
	}
	p.mu.Unlock()
	if ok {
		t.observeSendBatch(1)
	}
	return nil
}

// SendBatch implements BatchSender: every frame is written under its
// peer's mutex, and each touched peer is flushed exactly once at the end —
// a burst to one peer costs one syscall, which is the stream analogue of
// sendmmsg. Per-destination submission order is preserved by the per-peer
// FIFO writer.
func (t *TCP) SendBatch(frames []Frame) (int, error) {
	if t.isClosed() {
		return 0, ErrClosed
	}
	var touched []*tcpPeer
	sent := 0
	for i := range frames {
		if len(frames[i].Data) > TCPMaxFrame {
			for _, p := range touched {
				p.mu.Lock()
				p.flushLocked()
				p.mu.Unlock()
			}
			return sent, ErrFrameTooLarge
		}
		p := t.peerOf(frames[i].Dst.String())
		p.mu.Lock()
		ok := p.writeFrameLocked(frames[i].Data)
		p.mu.Unlock()
		if ok {
			sent++
			seen := false
			for _, q := range touched {
				if q == p {
					seen = true
					break
				}
			}
			if !seen {
				touched = append(touched, p)
			}
		}
	}
	for _, p := range touched {
		p.mu.Lock()
		p.flushLocked()
		p.mu.Unlock()
	}
	if sent > 0 {
		t.observeSendBatch(sent)
	}
	return sent, nil
}

// BatchEnabled implements BatchSender: flush batching is always live on a
// stream transport.
func (t *TCP) BatchEnabled() bool { return true }

// TransportStats implements StatsReporter.
func (t *TCP) TransportStats() (Stats, bool) { return t.snapshot(), true }

// SetReceiver implements Transport.
func (t *TCP) SetReceiver(r Receiver) {
	t.mu.Lock()
	t.recv = r
	t.mu.Unlock()
}

// LocalAddr implements Transport.
func (t *TCP) LocalAddr() Addr { return t.self }

// MaxFrame implements Transport.
func (t *TCP) MaxFrame() int { return TCPMaxFrame }

// Close implements Transport: stop accepting, tear down every stream, and
// wait for the accept, read, and dial loops to exit.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	err := t.ln.Close()
	t.connsMu.Lock()
	for conn := range t.conns {
		conn.Close()
	}
	t.connsMu.Unlock()
	t.wg.Wait()
	return err
}
