//go:build !(linux && (amd64 || arm64))

package transport

import (
	"errors"
	"net"
)

// vectorIO reports whether the socket's I/O is vectored: not here, where
// the read loop takes one datagram per read and SendBatch is a loop over
// Send.
const vectorIO = false

// udpOffload is empty where the transport has no vector I/O.
type udpOffload struct{}

func (u *UDP) initOffload() error { return nil }

// readLoop receives one datagram per read; without GRO there are no
// segments to split.
func (u *UDP) readLoop() {
	defer close(u.done)
	buf := make([]byte, UDPMaxFrame+1)
	for {
		n, src, err := u.conn.ReadFromUDPAddrPort(buf)
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
		if got := u.deliverSegments(recv, u.peer(src), buf[:n], 0); got > 0 {
			u.observeRecvBatch(got)
		}
	}
}

// SendBatch implements BatchSender as a loop over Send.
func (u *UDP) SendBatch(frames []Frame) (int, error) {
	for i, f := range frames {
		if err := u.Send(f.Dst, f.Data); err != nil {
			return i, err
		}
	}
	return len(frames), nil
}
