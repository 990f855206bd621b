package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"fireflyrpc/internal/cluster"
	"fireflyrpc/internal/core"
	"fireflyrpc/internal/kvstore"
	"fireflyrpc/internal/marshal"
	"fireflyrpc/internal/proto"
	"fireflyrpc/internal/transport"
)

// workload is one closed-loop traffic shape, driven by one caller
// goroutine. Why each exists is in BENCHMARK.json and README.md.
type workload struct {
	name string
	// warmup is the fixed warm-up op count, counted in setup_s: enough
	// ops to fill the frame pools, the peer channels, the RTT estimators
	// and the heap's steady size.
	warmup int
	// setups is how many set-ups a timed run makes; setup_s is their
	// median.
	setups int
	build  func(options) (*run, error)
}

var workloads = []*workload{
	{
		name:   "bulk64k_udp",
		warmup: 100,
		setups: 15,
		build:  buildBulk64k,
	},
	{
		name:   "kv_udp",
		warmup: 2000,
		setups: 5, // each preloads 10 000 keys, about a second
		build:  buildKV,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// options parameterise one build of a workload.
type options struct {
	seed   uint64
	traced bool
	// reverse fills dst with src reversed on the bulk server; the
	// self-tests substitute a wrong one.
	reverse func(dst, src []byte)
	// replica serves a kv replica's store; the self-tests substitute a
	// replica that lies about versions.
	replica func(*kvstore.Store) *core.Interface
}

// run is one built workload: its nodes, its op, and, in a traced build,
// the instrumentation the layer metrics are read from.
type run struct {
	nodes []*core.Node
	// op performs one operation and returns its latency; a non-nil error
	// is a failed op (RPC error or wrong output).
	op func() (time.Duration, error)

	seam    *seam   // traced: counters on every node's transport
	stamps  *stamps // traced: benchmark procedures' handler stamps
	codec   *codec  // traced: benchmark enc/dec closure time
	kv      *kvLoad // kv_udp only
	cluster *cluster.Client
	stores  []*kvstore.Store
}

func newRun(opt options) *run {
	r := &run{}
	if opt.traced {
		r.seam = &seam{}
		r.stamps = &stamps{}
		r.codec = &codec{}
	}
	return r
}

// node builds a core node over tr with the default protocol config; in a
// traced build the transport is wrapped by the seam counters.
func (r *run) node(tr transport.Transport) *core.Node {
	if r.seam != nil {
		tr = r.seam.wrap(tr)
	}
	n := core.NewNode(tr, proto.DefaultConfig())
	r.nodes = append(r.nodes, n)
	return n
}

func (r *run) close() {
	for _, n := range r.nodes {
		n.Close()
	}
}

// listenUDP opens n per-frame UDP sockets on loopback.
func listenUDP(n int) ([]transport.Transport, error) {
	trs := make([]transport.Transport, 0, n)
	for i := 0; i < n; i++ {
		tr, err := transport.ListenUDP("127.0.0.1:0")
		if err != nil {
			for _, t := range trs {
				t.Close()
			}
			return nil, fmt.Errorf("listen on loopback: %w", err)
		}
		trs = append(trs, tr)
	}
	return trs, nil
}

// The benchmark's own service: Reverse, with a handler that stamps entry
// and exit in traced builds.
const (
	benchIface   = "PerfBench"
	benchVersion = 1
	procReverse  = 2
)

func reverseBytes(dst, src []byte) {
	n := len(src)
	for i, b := range src {
		dst[n-1-i] = b
	}
}

func (r *run) service(opt options) *core.Interface {
	st := r.stamps
	rev := opt.reverse
	if rev == nil {
		rev = reverseBytes
	}
	return core.NewInterface(benchIface, benchVersion).
		Proc(procReverse, func(_ transport.Addr, d *marshal.Dec) ([]byte, error) {
			var t0 int64
			if st != nil {
				t0 = st.enter()
			}
			data := d.AliasVarBytes()
			if err := d.Err(); err != nil {
				return nil, err
			}
			res, err := core.Reply(4+len(data), func(e *marshal.Enc) {
				e.PutUint32(uint32(len(data)))
				rev(e.AliasFixed(len(data)), data)
			})
			if st != nil {
				st.exit(t0)
			}
			return res, err
		})
}

// pair builds a server node exporting the benchmark service and a caller
// client bound to it.
func (r *run) pair(opt options, serverTr, callerTr transport.Transport) *core.Client {
	server := r.node(serverTr)
	server.Export(r.service(opt))
	caller := r.node(callerTr)
	return caller.Bind(server.Addr(), benchIface, benchVersion).NewClient()
}

// timedCall runs one blocking call, stamping it in a traced build.
func (r *run) timedCall(cl *core.Client, proc uint16, argSize int, enc func(*marshal.Enc), dec func(*marshal.Dec)) (time.Duration, error) {
	t0 := time.Now()
	err := cl.Call(proc, argSize, enc, dec)
	t1 := time.Now()
	if r.stamps != nil {
		r.stamps.call(t0, t1)
	}
	return t1.Sub(t0), err
}

// bulkBytes is bulk64k_udp's array size: about 46 fragments each way.
const bulkBytes = 64 << 10

// bulkArrays is how many distinct seeded arrays the bulk caller rotates
// through, so a server returning a stale answer cannot pass the check.
const bulkArrays = 8

func buildBulk64k(opt options) (*run, error) {
	r := newRun(opt)
	trs, err := listenUDP(2)
	if err != nil {
		return nil, err
	}
	cl := r.pair(opt, trs[0], trs[1])
	rng := rand.New(rand.NewSource(int64(opt.seed)))
	var encs [bulkArrays]func(*marshal.Enc)
	var want [bulkArrays][]byte
	for i := range encs {
		arg := make([]byte, bulkBytes)
		rng.Read(arg)
		want[i] = make([]byte, bulkBytes)
		reverseBytes(want[i], arg)
		encs[i] = r.codec.enc(func(e *marshal.Enc) { e.PutVarBytes(arg) })
	}
	out := make([]byte, bulkBytes)
	var got int
	dec := r.codec.dec(func(d *marshal.Dec) { got = d.VarBytesInto(out) })
	next := 0
	r.op = func() (time.Duration, error) {
		i := next % bulkArrays
		next++
		got = 0
		lat, err := r.timedCall(cl, procReverse, 4+bulkBytes, encs[i], dec)
		if err == nil && (got != bulkBytes || !bytes.Equal(out, want[i])) {
			err = fmt.Errorf("reverse of array %d: %w", i, errCheck)
		}
		return lat, err
	}
	return r, nil
}

// The kv_udp data set.
const (
	kvKeys      = 10000
	kvValueSize = 128
	kvReplicas  = 3
	kvZipfS     = 1.1
)

// kvLoad is the kv_udp caller: the seeded op mix, the versions this client
// has had acked, and the outcome counters the checks and layer metrics
// read.
type kvLoad struct {
	kv    *kvstore.KV
	seed  uint64
	keys  []string
	acked []uint64
	rng   *rand.Rand
	zipf  *rand.Zipf
	check []byte // scratch for regenerating expected values

	getAny, get, put, stale int64
	getAnyH, getH, putH     hist
}

// kvFill writes the value for (key k, version ver): the version and key
// index in the first 16 bytes, seeded filler after, so any read can be
// checked for self-consistency.
func kvFill(v []byte, seed uint64, k int, ver uint64) {
	binary.LittleEndian.PutUint64(v[0:], ver)
	binary.LittleEndian.PutUint64(v[8:], uint64(k))
	x := seed ^ uint64(k)<<32 ^ ver*0x9e3779b97f4a7c15
	for i := 16; i+8 <= len(v); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(v[i:], z^z>>31)
	}
}

// consistent reports whether val is exactly the value written for key k
// at version ver.
func (l *kvLoad) consistent(val []byte, k int, ver uint64) bool {
	if len(val) != kvValueSize {
		return false
	}
	kvFill(l.check, l.seed, k, ver)
	return bytes.Equal(val, l.check)
}

func (l *kvLoad) doPut(ctx context.Context, k int) error {
	want := l.acked[k] + 1
	val := make([]byte, kvValueSize) // fresh: fanout stragglers may still read the last one
	kvFill(val, l.seed, k, want)
	ver, err := l.kv.Put(ctx, l.keys[k], val)
	if err != nil {
		return err
	}
	if ver != want {
		return fmt.Errorf("put %s acked version %d, single writer expects %d: %w", l.keys[k], ver, want, errCheck)
	}
	l.acked[k] = ver
	return nil
}

// op runs one seeded operation. Get must return exactly the last acked
// value and version. GetAny must return a self-consistent value no newer
// than the acked one; an older value or ErrNotFound is a stale read (the
// fanout cancels the third replica's write once a quorum has acked), not
// a failure.
func (l *kvLoad) op() (time.Duration, error) {
	ctx := context.Background()
	k := int(l.zipf.Uint64())
	key := l.keys[k]
	kind := l.rng.Intn(10)
	t0 := time.Now()
	switch {
	case kind < 8:
		val, ver, err := l.kv.GetAny(ctx, key)
		lat := time.Since(t0)
		l.getAny++
		l.getAnyH.add(lat)
		switch {
		case errors.Is(err, kvstore.ErrNotFound):
			l.stale++
			return lat, nil
		case err != nil:
			return lat, err
		case ver > l.acked[k] || !l.consistent(val, k, ver):
			return lat, fmt.Errorf("getany %s: version %d (acked %d): %w", key, ver, l.acked[k], errCheck)
		case ver < l.acked[k]:
			l.stale++
		}
		return lat, nil
	case kind == 8:
		val, ver, err := l.kv.Get(ctx, key)
		lat := time.Since(t0)
		l.get++
		l.getH.add(lat)
		if err != nil {
			return lat, err
		}
		if ver != l.acked[k] || !l.consistent(val, k, ver) {
			return lat, fmt.Errorf("get %s: version %d (acked %d): %w", key, ver, l.acked[k], errCheck)
		}
		return lat, nil
	default:
		err := l.doPut(ctx, k)
		lat := time.Since(t0)
		l.put++
		l.putH.add(lat)
		return lat, err
	}
}

func buildKV(opt options) (*run, error) {
	r := newRun(opt)
	trs, err := listenUDP(kvReplicas + 1)
	if err != nil {
		return nil, err
	}
	replica := opt.replica
	if replica == nil {
		replica = (*kvstore.Store).Export
	}
	addrs := make([]string, kvReplicas)
	for i := 0; i < kvReplicas; i++ {
		st := kvstore.NewStore()
		n := r.node(trs[i])
		n.Export(replica(st))
		r.stores = append(r.stores, st)
		addrs[i] = n.Addr().String()
	}
	caller := r.node(trs[kvReplicas])
	ctx := context.Background()
	cc, err := cluster.New(ctx, cluster.Config{
		Node:      caller,
		Resolver:  cluster.Static(addrs),
		ParseAddr: transport.ResolveUDPAddr,
		Iface:     kvstore.IfaceName,
		Version:   kvstore.IfaceVersion,
		Seed:      opt.seed,
	})
	if err != nil {
		r.close()
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(opt.seed)))
	l := &kvLoad{
		kv:    kvstore.NewKV(cc),
		seed:  opt.seed,
		keys:  make([]string, kvKeys),
		acked: make([]uint64, kvKeys),
		rng:   rng,
		zipf:  rand.NewZipf(rng, kvZipfS, 1, kvKeys-1),
		check: make([]byte, kvValueSize),
	}
	for k := range l.keys {
		l.keys[k] = fmt.Sprintf("key%05d", k)
	}
	for k := range l.keys {
		if err := l.doPut(ctx, k); err != nil {
			r.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	r.kv, r.cluster, r.op = l, cc, l.op
	return r, nil
}
