//go:build !(linux && (amd64 || arm64))

package transport

import "net/netip"

// udpOffload is empty where the transport has no segmentation offload.
type udpOffload struct{}

func (u *UDP) initOffload() {}

func (u *UDP) recvBufLen() int { return UDPMaxFrame + 1 }

// read receives one datagram; without GRO there are no segments.
func (u *UDP) read(buf, _ []byte) (int, int, netip.AddrPort, error) {
	n, src, err := u.conn.ReadFromUDPAddrPort(buf)
	return n, 0, src, err
}

// SendBatch implements BatchSender as a loop over Send.
func (u *UDP) SendBatch(frames []Frame) (int, error) { return u.sendEach(frames) }
