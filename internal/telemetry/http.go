package telemetry

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// HistogramView is the JSON rendering of one histogram: exact count,
// sum and mean plus log2-resolution quantiles (see
// HistogramSnapshot.Quantile).
type HistogramView struct {
	// Count is the number of observations.
	Count uint64 `json:"count"`
	// Sum is the exact total of observed values.
	Sum uint64 `json:"sum"`
	// Mean is the exact average observation.
	Mean float64 `json:"mean"`
	// P50, P90 and P99 are log2-bucket lower bounds of the quantiles.
	P50 uint64 `json:"p50"`
	P90 uint64 `json:"p90"`
	P99 uint64 `json:"p99"`
	// Max is the lower bound of the highest non-empty bucket.
	Max uint64 `json:"max"`
}

// View renders the snapshot for JSON output.
func (s HistogramSnapshot) View() HistogramView {
	return HistogramView{
		Count: s.Count(),
		Sum:   s.Sum,
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
		Max:   s.Max(),
	}
}

// Vars flattens a snapshot into the expvar-style name→value map served
// at /debug/vars: counters and gauges become numbers, histograms
// become HistogramView objects. encoding/json sorts the keys, so the
// rendering is deterministic (golden-tested).
func (s Snapshot) Vars() map[string]any {
	vars := make(map[string]any, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for name, v := range s.Counters {
		vars[name] = v
	}
	for name, v := range s.Gauges {
		vars[name] = v
	}
	for name, h := range s.Histograms {
		vars[name] = h.View()
	}
	return vars
}

// Handler returns an http.Handler that serves the registry snapshot as
// one flat JSON object (expvar's /debug/vars shape: metric name →
// value), keys sorted, indented. It works on a nil registry (empty
// object).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		data, err := json.MarshalIndent(r.Snapshot().Vars(), "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(append(data, '\n'))
	})
}

// NewMux returns a mux exposing the debug surface: the registry JSON
// at /debug/vars and the standard pprof handlers under /debug/pprof/.
func NewMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", r.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Connection bounds of every HTTP endpoint the daemons serve: a client
// must finish its request headers within ReadHeaderTimeout, and a
// keep-alive connection idle for IdleTimeout is closed, so slow or
// stalled clients cannot hold connections forever.
const (
	ReadHeaderTimeout = 3 * time.Second
	IdleTimeout       = 60 * time.Second
)

// NewServer returns an http.Server for h with the connection bounds
// above.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: ReadHeaderTimeout, IdleTimeout: IdleTimeout}
}

// Serve starts the debug endpoint on addr (host:port; port 0 picks a
// free port) in a background goroutine and returns the bound address.
// The listener lives for the remainder of the process — telemetry is
// a daemon surface, torn down with the process like expvar's.
func Serve(addr string, r *Registry) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() {
		// The server only stops when the process exits; Serve's error
		// (listener closed) has nowhere useful to go.
		_ = NewServer(NewMux(r)).Serve(ln)
	}()
	return ln.Addr(), nil
}
