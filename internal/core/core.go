// Package core is the Firefly RPC runtime for the real (non-simulated)
// stack: interface export and binding, per-thread activities, and the
// helpers that automatically generated stubs call.
//
// The structure mirrors the paper's: the transport mechanism is chosen at
// bind time (a Node is built over UDP, the in-process exchange, or any other
// transport.Transport); the caller stub marshals arguments into a call
// packet and blocks while the packet-exchange protocol does a send+receive
// in each direction; the server side keeps a pool of workers waiting for
// calls to dispatch through the interface registry.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"fireflyrpc/internal/marshal"
	"fireflyrpc/internal/proto"
	"fireflyrpc/internal/transport"
	"fireflyrpc/internal/wire"
)

// Errors.
var (
	ErrNoSuchInterface = errors.New("core: no such interface exported")
	ErrNoSuchProc      = errors.New("core: no such procedure in interface")
	ErrMarshal         = errors.New("core: argument marshalling failed")
)

// ProcFunc is a server-side procedure stub: it unmarshals arguments from
// args, invokes the implementation, and returns the marshalled results.
type ProcFunc func(src transport.Addr, args *marshal.Dec) ([]byte, error)

// ProcCtxFunc is a context-aware procedure stub. The context carries the
// caller's distributed trace identity when the call arrived traced; an
// implementation that makes further RPCs threads ctx into CallCtx/Go so its
// downstream spans parent onto this call's span.
type ProcCtxFunc func(ctx context.Context, src transport.Addr, args *marshal.Dec) ([]byte, error)

// Interface is an exportable set of procedures, identified on the wire by a
// hash of its name and version (as the stub compiler assigns).
type Interface struct {
	Name    string
	Version uint32
	ID      uint32
	procs   map[uint16]ProcCtxFunc
}

// NewInterface creates an interface; register procedures with Proc.
func NewInterface(name string, version uint32) *Interface {
	return &Interface{
		Name:    name,
		Version: version,
		ID:      wire.InterfaceID(name, version),
		procs:   make(map[uint16]ProcCtxFunc),
	}
}

// Proc registers a procedure stub under its wire ID. The adapter closure is
// built once at registration, so context-oblivious stubs pay nothing per
// call.
func (i *Interface) Proc(id uint16, fn ProcFunc) *Interface {
	return i.ProcCtx(id, func(_ context.Context, src transport.Addr, args *marshal.Dec) ([]byte, error) {
		return fn(src, args)
	})
}

// ProcCtx registers a context-aware procedure stub under its wire ID.
func (i *Interface) ProcCtx(id uint16, fn ProcCtxFunc) *Interface {
	if _, dup := i.procs[id]; dup {
		panic(fmt.Sprintf("core: duplicate proc %d in %s", id, i.Name))
	}
	i.procs[id] = fn
	return i
}

// Node is one RPC endpoint: it can export interfaces (server role) and bind
// to remote ones (caller role) over a single transport.
type Node struct {
	conn *proto.Conn

	mu     sync.RWMutex
	ifaces map[uint32]*Interface
}

// NewNode builds an endpoint over tr. The protocol configuration carries
// the retransmission policy and server worker count.
func NewNode(tr transport.Transport, cfg proto.Config) *Node {
	n := &Node{ifaces: make(map[uint32]*Interface)}
	n.conn = proto.NewConn(tr, cfg, n.dispatch)
	return n
}

// Addr returns the node's transport address.
func (n *Node) Addr() transport.Addr { return n.conn.LocalAddr() }

// Conn exposes the protocol connection (for Ping and Stats).
func (n *Node) Conn() *proto.Conn { return n.conn }

// Close shuts the node down.
func (n *Node) Close() error { return n.conn.Close() }

// Export makes an interface callable by remote nodes.
func (n *Node) Export(iface *Interface) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.ifaces[iface.ID] = iface
}

// decPool recycles server-side argument decoders so dispatch does not
// allocate one per incoming call. A ProcFunc must not retain the Dec past
// its return (generated stubs never do).
var decPool = sync.Pool{New: func() any { return new(marshal.Dec) }}

// dispatch is the proto.Handler: find the interface and procedure, run
// it. A traced call gets a context carrying the caller's trace identity so
// ProcCtx implementations can re-emit it on chained calls; the untraced
// fast path reuses the shared background context and allocates nothing.
func (n *Node) dispatch(src transport.Addr, tc wire.TraceCtx, ifaceID uint32, proc uint16, args []byte) ([]byte, error) {
	n.mu.RLock()
	iface := n.ifaces[ifaceID]
	n.mu.RUnlock()
	if iface == nil {
		return nil, ErrNoSuchInterface
	}
	fn := iface.procs[proc]
	if fn == nil {
		return nil, ErrNoSuchProc
	}
	ctx := context.Background()
	if tc.Valid() {
		ctx = proto.ContextWithTrace(ctx, tc)
	}
	d := decPool.Get().(*marshal.Dec)
	d.Reset(args)
	res, err := fn(ctx, src, d)
	d.Reset(nil) // drop the args reference before pooling
	decPool.Put(d)
	return res, err
}

// Binding is the result of binding to a remote instance of an interface:
// the bundle of transport procedures the caller stub will use.
type Binding struct {
	node   *Node
	remote transport.Addr
	iface  uint32
}

// Bind names a remote interface instance. (No packets are exchanged at bind
// time on the fast path; use Probe to verify liveness.)
func (n *Node) Bind(remote transport.Addr, name string, version uint32) *Binding {
	return &Binding{node: n, remote: remote, iface: wire.InterfaceID(name, version)}
}

// Probe checks the remote end is answering.
func (b *Binding) Probe(timeout time.Duration) error {
	return b.node.conn.Ping(b.remote, timeout)
}

// Client is a handle on a binding. Every call, blocking or not, takes a
// slot of its own: an activity (the protocol allows one call in flight per
// activity, the next seq superseding the previous) with reusable argument
// and result buffers and an encoder/decoder pair. Slots are recycled
// through a freelist, so the single-packet fast path performs no per-call
// heap allocation in this layer — the Firefly's per-thread call table
// entry, kept per outstanding call instead of per thread. Call, Go and
// Await may therefore be used from any goroutine, as long as each Pending
// is awaited once.
type Client struct {
	b *Binding

	slotMu   sync.Mutex
	freeSlot *slot
}

// NewClient returns a calling handle on the binding. Activities are
// allocated as its calls first need them.
func (b *Binding) NewClient() *Client { return &Client{b: b} }

// Call performs a remote call. argSize is the exact marshalled size of the
// arguments; enc fills them; dec (which may be nil) consumes the results.
// Generated stubs compute argSize from the signature so the call packet
// buffer is sized exactly, like the Starter's packet buffer — and the buffer
// itself is the slot's, recycled across calls.
//
// The Dec handed to dec reads the slot's reusable result buffer, which a
// later call overwrites: dec must copy anything it keeps (the copying
// primitives — FixedBytes, VarBytes, VarBytesInto, String — are safe; the
// server-side aliasing primitives must not be used here).
func (c *Client) Call(proc uint16, argSize int, enc func(*marshal.Enc), dec func(*marshal.Dec)) error {
	return c.CallCtx(context.Background(), proc, argSize, enc, dec)
}

// CallCtx is Call with cancellation: the ctx deadline bounds the whole
// exchange (retransmissions included) and cancelling ctx abandons the call
// immediately, releasing its protocol-level state and notifying the server.
// It is Go followed by Await.
func (c *Client) CallCtx(ctx context.Context, proc uint16, argSize int, enc func(*marshal.Enc), dec func(*marshal.Dec)) error {
	p, err := c.Go(ctx, proc, argSize, enc)
	if err != nil {
		return err
	}
	return p.Await(ctx, dec)
}

// slot is one call's context: an activity of its own, reusable
// argument/result buffers, marshalling state, and the protocol-level
// pending handle. Slots live on the Client's freelist between calls.
type slot struct {
	activity uint64
	seq      uint32
	argBuf   []byte
	resBuf   []byte
	enc      marshal.Enc
	dec      marshal.Dec
	pc       proto.Pending
	pending  Pending
	next     *slot
}

// Pending is the handle to one in-flight asynchronous call started with
// Client.Go. Exactly one Await must follow each Go; after Await returns,
// the handle is dead (its slot is recycled into the next Go).
type Pending struct {
	c       *Client
	s       *slot
	awaited bool
	err     error
}

// Done returns a channel closed when the call has completed; collect the
// outcome with Await. Valid only until Await returns.
func (p *Pending) Done() <-chan struct{} { return p.s.pc.Done() }

// Await blocks until the call completes or ctx is cancelled, runs dec over
// the result (dec reads a buffer the slot's next call overwrites, so it
// must copy anything it keeps), and recycles the slot.
func (p *Pending) Await(ctx context.Context, dec func(*marshal.Dec)) error {
	if p.awaited {
		return p.err
	}
	s, c := p.s, p.c
	res, err := s.pc.Await(ctx)
	if err == nil {
		if cap(res) > cap(s.resBuf) {
			s.resBuf = res[:0]
		}
		if dec != nil {
			s.dec.Reset(res)
			dec(&s.dec)
			err = s.dec.Err()
			s.dec.Reset(nil)
		}
	}
	p.awaited = true
	p.err = err
	c.putSlot(s)
	return err
}

func (c *Client) getSlot() *slot {
	c.slotMu.Lock()
	s := c.freeSlot
	if s != nil {
		c.freeSlot = s.next
		s.next = nil
	}
	c.slotMu.Unlock()
	if s == nil {
		s = &slot{
			activity: c.b.node.conn.NewActivity(),
			resBuf:   make([]byte, 0, wire.MaxSinglePacketPayload),
		}
		s.pending = Pending{c: c, s: s}
	}
	s.pending.awaited = false
	s.pending.err = nil
	return s
}

func (c *Client) putSlot(s *slot) {
	c.slotMu.Lock()
	s.next = c.freeSlot
	c.freeSlot = s
	c.slotMu.Unlock()
}

// Go starts an asynchronous call and returns its pending handle. argSize
// and enc are as in Call. The call proceeds without a dedicated goroutine:
// the protocol's retransmission engine drives it, and the result is
// collected with Await (or awaited after Done fires). A Client may have
// any number of calls outstanding, each in a pooled slot with its own
// activity.
func (c *Client) Go(ctx context.Context, proc uint16, argSize int, enc func(*marshal.Enc)) (*Pending, error) {
	s := c.getSlot()
	var args []byte
	if argSize > 0 {
		if cap(s.argBuf) < argSize {
			s.argBuf = make([]byte, argSize)
		}
		args = s.argBuf[:argSize]
		s.enc.Reset(args)
		if enc != nil {
			enc(&s.enc)
		}
		if s.enc.Err() != nil {
			err := fmt.Errorf("%w: %v", ErrMarshal, s.enc.Err())
			c.putSlot(s)
			return nil, err
		}
		args = s.enc.Bytes()
	} else if enc != nil {
		s.enc.Reset(nil)
		enc(&s.enc)
	}
	s.seq++
	if err := c.b.node.conn.StartCall(ctx, c.b.remote, s.activity, s.seq, c.b.iface, proc, args, s.resBuf, &s.pc); err != nil {
		c.putSlot(s)
		return nil, err
	}
	return &s.pending, nil
}

// CheckLen validates a fixed-length array argument against its IDL-declared
// size; generated stubs call it before marshalling.
func CheckLen(name string, got, want int) error {
	if got != want {
		return fmt.Errorf("core: argument %s has %d bytes, interface declares %d", name, got, want)
	}
	return nil
}

// Reply is the server-stub helper: allocate a result buffer of exactly
// size bytes and fill it.
func Reply(size int, enc func(*marshal.Enc)) ([]byte, error) {
	buf := make([]byte, size)
	e := marshal.NewEnc(buf)
	if enc != nil {
		enc(e)
	}
	if e.Err() != nil {
		return nil, e.Err()
	}
	return e.Bytes(), nil
}
