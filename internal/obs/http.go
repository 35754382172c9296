package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"
)

// expvarSnapshotHandler mirrors expvar.Handler's output — the
// process-global published vars (cmdline, memstats, anything the
// embedder added) — and appends snapshot() under "witag". Duplicating the
// loop here avoids expvar.Publish, whose global table panics on
// re-registration, so several hub servers coexist in one process.
func expvarSnapshotHandler(snapshot func() Snapshot) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintf(w, "{\n")
		expvar.Do(func(kv expvar.KeyValue) {
			fmt.Fprintf(w, "%q: %s,\n", kv.Key, kv.Value.String())
		})
		snap := expvar.Func(func() any { return snapshot() })
		fmt.Fprintf(w, "%q: %s\n}\n", "witag", snap.String())
	}
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

// ServeHandler binds addr and serves an arbitrary handler (the hub mux,
// in the CLIs) in a background goroutine.
func ServeHandler(addr string, handler http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		Addr: ln.Addr(),
		srv:  &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second},
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
