// Package debughttp is the optional observability surface for the real RPC
// stack: an HTTP listener exposing every registered Conn's counters, peer
// table, latency histograms, and stage-trace accounting as JSON, plus the
// standard expvar and pprof endpoints. Nothing here touches the call fast
// path — every page is a pull-time snapshot of the lock-free state the
// protocol already maintains, so serving the page costs the caller of an
// RPC nothing.
//
// Endpoints:
//
//	/debug/rpc        full JSON snapshot of every registered Conn
//	/debug/rpc/peers  peer/channel table only
//	/debug/rpc/hist   per-peer and per-method latency summaries only
//	/debug/rpc/trace  stage-trace accounting (empty unless tracing is on)
//	/debug/rpc/trace/spans  assembled distributed-trace spans (add ?format=perfetto for a viewer-ready document)
//	/debug/rpc/flight  per-Conn flight recorder: live anomaly ring + last auto-dump
//	/debug/rpc/cluster  registered replica-set balancers: picks, hedges, ejections
//	/debug/rpc/sim    registered simulation kernels: clock + per-resource stats
//	/debug/rpc/metrics  Prometheus text format: counters, latency histograms, sim gauges
//	/debug/vars       expvar (includes the "fireflyrpc" snapshot var)
//	/debug/pprof/     the standard runtime profiles
package debughttp

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"time"

	"fireflyrpc/internal/overload"
	"fireflyrpc/internal/proto"
	"fireflyrpc/internal/stats"
	"fireflyrpc/internal/transport"
)

// registry holds the Conns the surface reports on. Registration is global
// so a process's server and client stacks can both appear on one listener.
var (
	regMu   sync.Mutex
	reg     = map[string]*proto.Conn{}
	pubOnce sync.Once
)

// Register adds (or replaces) a named Conn on the debug surface.
func Register(name string, conn *proto.Conn) {
	regMu.Lock()
	reg[name] = conn
	regMu.Unlock()
	// Publish the expvar exactly once, lazily, so importing the package
	// costs nothing and tests re-registering conns never collide.
	pubOnce.Do(func() {
		expvar.Publish("fireflyrpc", expvar.Func(func() any { return snapshot() }))
	})
}

// Unregister removes a named Conn (e.g. after closing it).
func Unregister(name string) {
	regMu.Lock()
	delete(reg, name)
	regMu.Unlock()
}

// PeerHistView is one peer's latency summary.
type PeerHistView struct {
	Peer    string        `json:"peer"`
	Summary stats.Summary `json:"summary"`
}

// MethodHistView is one method's latency summary.
type MethodHistView struct {
	Interface uint32        `json:"interface"`
	Proc      uint16        `json:"proc"`
	Summary   stats.Summary `json:"summary"`
}

// ConnView is the full snapshot of one registered Conn.
type ConnView struct {
	Name        string           `json:"name"`
	Addr        string           `json:"addr"`
	Tracing     bool             `json:"tracing"`
	Stats       proto.Stats      `json:"stats"`
	Transport   *transport.Stats `json:"transport,omitempty"` // nil when the transport reports no counters
	Admission   *overload.Stats  `json:"admission,omitempty"` // nil unless Config.Admission set a capacity
	Peers       []proto.PeerInfo `json:"peers"`
	PeerHists   []PeerHistView   `json:"peer_hists,omitempty"`
	MethodHists []MethodHistView `json:"method_hists,omitempty"`
}

// Snapshot is the top-level /debug/rpc document. Accounting joins the trace
// rings of every tracing-enabled registered Conn, so when a process hosts
// both ends of a call (or serves traced calls from a traced caller
// elsewhere in-process) the full stage breakdown appears here.
type Snapshot struct {
	Now        string                  `json:"now"`
	Conns      []ConnView              `json:"conns"`
	Accounting *proto.AccountingReport `json:"accounting,omitempty"`
}

func view(name string, c *proto.Conn) ConnView {
	v := ConnView{
		Name:    name,
		Addr:    c.LocalAddr().String(),
		Tracing: c.TracingEnabled(),
		Stats:   c.Stats(),
		Peers:   c.Peers(),
	}
	if ts, ok := c.TransportStats(); ok {
		v.Transport = &ts
	}
	if as, ok := c.AdmissionStats(); ok {
		v.Admission = &as
	}
	for _, ph := range c.PeerHistograms() {
		v.PeerHists = append(v.PeerHists, PeerHistView{Peer: ph.Peer, Summary: ph.Hist.Summarize()})
	}
	for _, mh := range c.MethodHistograms() {
		v.MethodHists = append(v.MethodHists, MethodHistView{
			Interface: mh.Interface, Proc: mh.Proc, Summary: mh.Hist.Summarize(),
		})
	}
	return v
}

func snapshot() Snapshot {
	regMu.Lock()
	names := make([]string, 0, len(reg))
	for name := range reg {
		names = append(names, name)
	}
	conns := make([]*proto.Conn, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		conns = append(conns, reg[name])
	}
	regMu.Unlock()
	snap := Snapshot{Now: time.Now().UTC().Format(time.RFC3339Nano)}
	var rings [][]proto.TraceRecord
	for i, name := range names {
		v := view(name, conns[i])
		snap.Conns = append(snap.Conns, v)
		if v.Tracing {
			rings = append(rings, conns[i].TraceRecords())
		}
	}
	if len(rings) > 0 {
		rep := proto.Account(rings...)
		snap.Accounting = &rep
	}
	return snap
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Handler returns the debug mux. It is exported separately from Serve so a
// process that already runs an HTTP server can mount the surface itself.
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/rpc", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, snapshot())
	})
	mux.HandleFunc("/debug/rpc/peers", func(w http.ResponseWriter, _ *http.Request) {
		snap := snapshot()
		out := map[string][]proto.PeerInfo{}
		for _, c := range snap.Conns {
			out[c.Name] = c.Peers
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("/debug/rpc/hist", func(w http.ResponseWriter, _ *http.Request) {
		type hists struct {
			Peers   []PeerHistView   `json:"peers"`
			Methods []MethodHistView `json:"methods"`
		}
		snap := snapshot()
		out := map[string]hists{}
		for _, c := range snap.Conns {
			out[c.Name] = hists{Peers: c.PeerHists, Methods: c.MethodHists}
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("/debug/rpc/trace", func(w http.ResponseWriter, _ *http.Request) {
		out := map[string]*proto.AccountingReport{}
		if snap := snapshot(); snap.Accounting != nil {
			out["joined"] = snap.Accounting
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("/debug/rpc/trace/spans", serveSpans)
	mux.HandleFunc("/debug/rpc/flight", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, flightSnapshot())
	})
	mux.HandleFunc("/debug/rpc/cluster", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, clusterSnapshot())
	})
	mux.HandleFunc("/debug/rpc/sim", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, simSnapshot())
	})
	mux.HandleFunc("/debug/rpc/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeMetrics(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is one running debug listener.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the listener's actual address (useful with a ":0" port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the listener down.
func (s *Server) Close() error { return s.srv.Close() }

// Serve starts the debug surface on addr (e.g. "127.0.0.1:6060", or ":0"
// for an ephemeral port) and serves until Close.
func Serve(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: Handler()}
	go func() { _ = srv.Serve(ln) }()
	return &Server{ln: ln, srv: srv}, nil
}
