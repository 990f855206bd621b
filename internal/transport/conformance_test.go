package transport_test

import (
	"testing"

	"fireflyrpc/internal/transport"
	"fireflyrpc/internal/transport/transporttest"
)

// TestConformance runs the shared contract suite against every bundled
// transport: the point of the one-transport-contract invariant is that
// these all behave identically from the protocol layer's seat.
func TestConformance(t *testing.T) {
	transporttest.Run(t, "Exchange", func(t *testing.T) (transport.Transport, transport.Transport) {
		ex := transport.NewExchange()
		a := ex.Port("conf-a")
		b := ex.Port("conf-b")
		t.Cleanup(func() { a.Close(); b.Close() })
		return a, b
	})

	transporttest.Run(t, "UDP", func(t *testing.T) (transport.Transport, transport.Transport) {
		a, err := transport.ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatalf("ListenUDP: %v", err)
		}
		t.Cleanup(func() { a.Close() })
		b, err := transport.ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatalf("ListenUDP: %v", err)
		}
		t.Cleanup(func() { b.Close() })
		return a, b
	})

	// The kernel refuses UDP_SEGMENT on these sockets, so SendBatch meets
	// the refusal on its first GSO message and from then on sends every
	// frame as its own message, the path a kernel without UDP_SEGMENT takes
	// from the start.
	transporttest.Run(t, "UDPGSORefused", func(t *testing.T) (transport.Transport, transport.Transport) {
		var trs [2]transport.Transport
		for i := range trs {
			u, err := transport.ListenUDP("127.0.0.1:0")
			if err != nil {
				t.Fatalf("ListenUDP: %v", err)
			}
			t.Cleanup(func() { u.Close() })
			if err := transport.RefuseGSO(u); err != nil {
				t.Fatalf("refusing GSO: %v", err)
			}
			trs[i] = u
		}
		return trs[0], trs[1]
	})

	// The same socket as ListenUDP, with BatchEnabled on where SendBatch is
	// a vector send.
	transporttest.Run(t, "UDPBatch", func(t *testing.T) (transport.Transport, transport.Transport) {
		a, err := transport.ListenUDPBatch("127.0.0.1:0", transport.UDPOptions{})
		if err != nil {
			t.Fatalf("ListenUDPBatch: %v", err)
		}
		t.Cleanup(func() { a.Close() })
		b, err := transport.ListenUDPBatch("127.0.0.1:0", transport.UDPOptions{})
		if err != nil {
			t.Fatalf("ListenUDPBatch: %v", err)
		}
		t.Cleanup(func() { b.Close() })
		return a, b
	})

	// Authentication over UDP: tags ride every frame, SendBatch still hands
	// the batch to the socket in one call, and the socket's counters show.
	transporttest.Run(t, "AuthUDP", func(t *testing.T) (transport.Transport, transport.Transport) {
		var trs [2]transport.Transport
		for i := range trs {
			u, err := transport.ListenUDP("127.0.0.1:0")
			if err != nil {
				t.Fatalf("ListenUDP: %v", err)
			}
			a := transport.WithAuth(u, []byte("conformance key"))
			t.Cleanup(func() { a.Close() })
			trs[i] = a
		}
		return trs[0], trs[1]
	})

	transporttest.Run(t, "TCP", func(t *testing.T) (transport.Transport, transport.Transport) {
		a, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatalf("ListenTCP: %v", err)
		}
		t.Cleanup(func() { a.Close() })
		b, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatalf("ListenTCP: %v", err)
		}
		t.Cleanup(func() { b.Close() })
		return a, b
	})
}
