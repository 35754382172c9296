package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strings"
)

// Live campaign HTTP surface. A hub mux serves the process's
// observability endpoints, per campaign and rolled up:
//
//	/campaigns                    list + status JSON
//	/campaigns/<id>               one campaign's status JSON
//	/campaigns/<id>/metrics       Prometheus text (default) or ?format=json snapshot
//	/campaigns/<id>/events        SSE stream of progress/phase/anomaly/status events
//	/campaigns/<id>/timeseries    windowed metric time-series JSON (?last=N)
//	/metrics                      process-wide rollup (merged across campaigns)
//	/metrics?per_campaign=1       label-prefixed rollup (campaign.<id>.<name>)
//	/healthz                      liveness (always 200 while the process serves)
//	/readyz                       readiness (503 once the hub begins shutdown)
//	/debug/vars                   expvar-style JSON with the rollup under "witag"
//	/debug/pprof/                 the net/http/pprof suite
//
// Everything hangs off a private mux, so the package never mutates
// http.DefaultServeMux or the process-global expvar table and several
// hubs coexist in one process.

// writeJSON writes v as a compact JSON response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// NewHubMux returns a mux serving hub's observability endpoints.
func NewHubMux(hub *Hub) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if r.URL.Query().Get("per_campaign") != "" {
			_ = hub.PrefixedRollup().WritePrometheus(w)
			return
		}
		_ = hub.Rollup().WritePrometheus(w)
	})
	mux.HandleFunc("/campaigns", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, hub.List())
	})
	mux.HandleFunc("/campaigns/", func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/campaigns/")
		id, sub, _ := strings.Cut(rest, "/")
		c := hub.Get(id)
		if c == nil {
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
		if !hub.Ready() {
			http.Error(w, "shutting down", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/debug/vars", expvarSnapshotHandler(hub.Rollup))
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

// ServeHub binds addr and serves hub's endpoints in the background.
func ServeHub(addr string, hub *Hub) (*Server, error) {
	return ServeHandler(addr, NewHubMux(hub))
}
