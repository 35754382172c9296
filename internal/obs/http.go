package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"
)

// Live campaign HTTP surface. The mux serves one campaign's
// observability endpoints:
//
//	/campaigns                    the campaign's status row, in a list
//	/campaigns/<id>               the campaign's status JSON
//	/campaigns/<id>/metrics       Prometheus text (default) or ?format=json snapshot
//	/campaigns/<id>/events        SSE stream of progress/phase/anomaly/status events
//	/campaigns/<id>/timeseries    windowed metric time-series JSON (?last=N)
//	/metrics                      the campaign's metrics, unlabeled
//	/healthz                      liveness (always 200 while the process serves)
//	/readyz                       readiness (503 once the event broker closes)
//	/debug/vars                   expvar-style JSON with the metrics under "witag"
//	/debug/pprof/                 the net/http/pprof suite
//
// Everything hangs off a private mux, so the package never mutates
// http.DefaultServeMux or the process-global expvar table and several
// servers coexist in one process.

// writeJSON writes v as an indented JSON response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// NewMux returns a mux serving c's observability endpoints.
func NewMux(c *Campaign) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = c.Registry.Snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("/campaigns", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, []CampaignStatus{c.Status()})
	})
	mux.HandleFunc("/campaigns/", func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/campaigns/")
		id, sub, _ := strings.Cut(rest, "/")
		if id != c.ID {
			http.NotFound(w, r)
			return
		}
		switch sub {
		case "":
			writeJSON(w, c.Status())
		case "metrics":
			snap := c.Registry.Snapshot()
			if r.URL.Query().Get("format") == "json" {
				writeJSON(w, snap)
				return
			}
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = snap.WritePrometheusLabeled(w, "campaign", c.ID)
		case "events":
			c.Events.ServeSSE(w, r, DefaultEventQueue)
		case "timeseries":
			tl := c.TimelineRef()
			if tl == nil {
				http.Error(w, "campaign has no timeline (run with -timeline)", http.StatusNotFound)
				return
			}
			wins := tl.Windows()
			if lastStr := r.URL.Query().Get("last"); lastStr != "" {
				var last int
				if _, err := fmt.Sscanf(lastStr, "%d", &last); err != nil || last < 0 {
					http.Error(w, "bad last parameter", http.StatusBadRequest)
					return
				}
				if last < len(wins) {
					wins = wins[len(wins)-last:]
				}
			}
			writeJSON(w, TimeseriesResponse{
				Campaign:     c.ID,
				WindowTrials: tl.Config().WindowTrials,
				Total:        tl.Total(),
				Dropped:      tl.Dropped(),
				Windows:      wins,
			})
		default:
			http.NotFound(w, r)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if c.Events.Closed() {
			http.Error(w, "shutting down", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		// expvar.Handler's output — the process-global published vars
		// (cmdline, memstats, anything the embedder added) — with the
		// snapshot appended under "witag". Writing the loop here avoids
		// expvar.Publish, whose global table panics on re-registration.
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintf(w, "{\n")
		expvar.Do(func(kv expvar.KeyValue) {
			fmt.Fprintf(w, "%q: %s,\n", kv.Key, kv.Value.String())
		})
		snap := expvar.Func(func() any { return c.Registry.Snapshot() })
		fmt.Fprintf(w, "%q: %s\n}\n", "witag", snap.String())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "witag observability: /campaigns /metrics /healthz /readyz /debug/vars /debug/pprof/\n")
	})
	return mux
}

// TimeseriesResponse is the /campaigns/<id>/timeseries payload: the
// campaign's retained timeline windows plus the ring's accounting, so a
// poller knows when windows were dropped between fetches.
type TimeseriesResponse struct {
	Campaign     string           `json:"campaign"`
	WindowTrials int              `json:"window_trials"`
	Total        int              `json:"total"`
	Dropped      int              `json:"dropped"`
	Windows      []TimelineWindow `json:"windows"`
}

// Server is a running observability listener.
type Server struct {
	// Addr is the bound address (useful with ":0").
	Addr net.Addr
	srv  *http.Server
	done chan error

	closeOnce sync.Once
	closeErr  error
}

// Serve binds addr and serves c's endpoints (NewMux) in a background
// goroutine.
func Serve(addr string, c *Campaign) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		Addr: ln.Addr(),
		srv:  &http.Server{Handler: NewMux(c), ReadHeaderTimeout: 5 * time.Second},
		done: make(chan error, 1),
	}
	go func() {
		err := s.srv.Serve(ln)
		if err == http.ErrServerClosed {
			err = nil
		}
		s.done <- err
	}()
	return s, nil
}

// Close stops the listener and waits for the serve goroutine to exit.
// It is idempotent and safe to race — CLIs hook it on both context
// cancellation and a defer, and whichever fires second gets the same
// result without blocking on the drained done channel.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.closeOnce.Do(func() {
		err := s.srv.Close()
		if serveErr := <-s.done; err == nil {
			err = serveErr
		}
		s.closeErr = err
	})
	return s.closeErr
}
