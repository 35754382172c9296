package cliflags

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"witag/internal/buildinfo"
	"witag/internal/obs"
)

// Main is the shared main preamble of the run CLIs: it registers
// -version, parses the command line, answers -version, and runs fn under
// a context cancelled by SIGINT or SIGTERM. An error from fn is printed
// as "tool: err" on stderr and exits 1.
func Main(tool string, fn func(ctx context.Context) error) {
	version := flag.Bool("version", false, "print build provenance (git SHA, Go version) and exit")
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, tool)
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := fn(ctx)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, tool+":", err)
		os.Exit(1)
	}
}

// Help is a tool's wording of the shared flags whose help text differs
// between tools; -h output is part of each CLI's contract.
type Help struct {
	// Unit is what the progress reporter and timeline windows count
	// ("run", "trial").
	Unit        string
	MetricsAddr string
	Trace       string
	Log         string
}

// Run is the run contract witag-bench and witag-sim share: the
// observability flags, the campaign scope they open, and what is written
// however the run ends — the trace ring, the timeline and a RUNS.jsonl
// ledger record with the run's outcome. The tool fills LedgerDir,
// Provenance and Artifacts; everything else comes from the flags.
type Run struct {
	Tool string // "witag-bench", "witag-sim": ledger tool and stderr prefix

	MetricsAddr    string
	TracePath      string
	TraceCap       int
	Progress       bool
	LogPath        string
	LogLevel       string
	TimelineWindow int
	// TimelinePath, when set, attaches one campaign-wide timeline whose
	// logical windows are written there as JSONL on Close.
	TimelinePath string

	// LedgerDir receives the run's RUNS.jsonl record (empty: no ledger).
	LedgerDir  string
	Provenance any
	Artifacts  []string

	unit       string
	level      slog.Level
	camp       *obs.Campaign
	progress   *obs.Progress
	logFile    *os.File
	timeline   *obs.Timeline
	stopServer func()
}

// RegisterFlags binds the shared observability flags to r on fs.
func (r *Run) RegisterFlags(fs *flag.FlagSet, help Help) {
	r.unit = help.Unit
	fs.StringVar(&r.MetricsAddr, "metrics-addr", "", help.MetricsAddr)
	fs.StringVar(&r.TracePath, "trace", "", help.Trace)
	fs.IntVar(&r.TraceCap, "trace-cap", obs.DefaultTraceCap, "trace ring capacity in events; oldest events are dropped beyond it")
	fs.BoolVar(&r.Progress, "progress", false, "live "+help.Unit+" progress (rate, ETA) on stderr")
	fs.StringVar(&r.LogPath, "log", "", help.Log)
	fs.StringVar(&r.LogLevel, "log-level", "info", "minimum log level: "+strings.Join(LogLevels, ", "))
	fs.IntVar(&r.TimelineWindow, "timeline-window", obs.DefaultTimelineWindow, "completed "+help.Unit+"s per logical timeline window")
}

// Validate checks the shared flags up front, before any work starts.
func (r *Run) Validate() error {
	level, err := LogLevel("-log-level", r.LogLevel)
	if err != nil {
		return err
	}
	r.level = level
	for _, err := range []error{
		OutputFile("-trace", r.TracePath),
		OutputFile("-log", r.LogPath),
		OutputFile("-timeline", r.TimelinePath),
		MetricsAddr("-metrics-addr", r.MetricsAddr),
	} {
		if err != nil {
			return err
		}
	}
	if r.TimelineWindow <= 0 {
		return fmt.Errorf("-timeline-window must be >= 1, got %d", r.TimelineWindow)
	}
	return nil
}

// Open builds the run's one campaign, id, with the flags' progress
// reporter, log file, trace ring and timeline, logs "run started" with
// attrs, and serves the campaign when -metrics-addr is set.
// Attaching the campaign draws no RNG values, so results are
// byte-identical with or without it. After a successful Open the caller
// must Close; a failed Open has already closed.
func (r *Run) Open(ctx context.Context, id string, attrs ...any) (*obs.Campaign, error) {
	if r.Progress {
		r.progress = obs.NewProgress(os.Stderr, r.unit+"s")
	}
	opts := obs.CampaignOptions{Progress: r.progress, LogLevel: r.level}
	if r.LogPath != "" {
		f, err := os.Create(r.LogPath)
		if err != nil {
			err = fmt.Errorf("-log: %w", err)
			r.Close(ctx, err)
			return nil, err
		}
		r.logFile, opts.LogW = f, f
	}
	if r.TracePath != "" {
		opts.TraceCap = r.TraceCap
		if opts.TraceCap <= 0 {
			opts.TraceCap = obs.DefaultTraceCap
		}
	}
	camp := obs.NewCampaign(id, opts)
	r.camp = camp
	if r.TimelinePath != "" {
		r.timeline = obs.NewTimeline(camp.Registry, obs.TimelineConfig{WindowTrials: r.TimelineWindow})
		camp.SetTimeline(r.timeline)
	}
	camp.Logger.Info("run started", attrs...)

	if r.MetricsAddr != "" {
		srv, err := obs.Serve(r.MetricsAddr, camp)
		if err != nil {
			r.Close(ctx, err)
			return nil, err
		}
		// Close on signal as well as on return: a ^C mid-campaign turns
		// /readyz 503 (the broker closes, ending live streams) and must
		// release the listener promptly. Both closes are idempotent, so
		// the two paths race safely.
		unhook := context.AfterFunc(ctx, func() { camp.Events.Close(); srv.Close() })
		r.stopServer = func() { srv.Close(); unhook() }
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics (also /campaigns, /campaigns/%s/events, /debug/pprof/)\n", srv.Addr, camp.ID)
	}
	return camp, nil
}

// Close ends the run with err: it writes the trace ring, stops the
// server, marks the campaign finished, logs and ledgers the outcome (ok,
// error, or cancelled when ctx is done), writes the timeline, and closes
// the log file and progress reporter. Write failures here are reported
// on stderr; they cannot change the run's outcome.
func (r *Run) Close(ctx context.Context, err error) {
	if camp := r.camp; camp != nil {
		if camp.Trace != nil {
			if terr := WriteTrace(r.TracePath, camp.Trace); terr != nil {
				fmt.Fprintln(os.Stderr, r.Tool+": trace:", terr)
			}
		}
		if r.stopServer != nil {
			r.stopServer()
		}
		camp.Finish(err)
		outcome := "ok"
		switch {
		case err != nil && ctx.Err() != nil:
			outcome = "cancelled"
		case err != nil:
			outcome = "error"
		}
		camp.Logger.Info("run finished", slog.String("outcome", outcome), slog.Int64("wall_ms", camp.WallMs()))
		if r.LedgerDir != "" {
			rec := obs.RunRecord{
				Tool: r.Tool, Campaign: camp.ID, Outcome: outcome,
				WallMs: camp.WallMs(), Artifacts: r.Artifacts,
				Provenance: r.Provenance, Build: buildinfo.Current(r.Tool),
			}
			if err != nil {
				rec.Error = err.Error()
			}
			if lerr := obs.AppendRunRecord(r.LedgerDir, rec); lerr != nil {
				fmt.Fprintln(os.Stderr, r.Tool+": ledger:", lerr)
			}
		}
		if r.timeline != nil {
			r.timeline.Flush()
			if terr := WriteTimeline(r.TimelinePath, r.timeline); terr != nil {
				fmt.Fprintln(os.Stderr, r.Tool+": timeline:", terr)
			}
		}
	}
	if r.logFile != nil {
		if cerr := r.logFile.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, r.Tool+": log:", cerr)
		}
	}
	r.progress.Finish()
}

// WriteTrace writes rec's events to path as JSONL and reports the count
// on stderr, naming -trace-cap when the ring dropped older events.
func WriteTrace(path string, rec *obs.Recorder) error {
	if err := writeFile(path, rec.WriteJSONL); err != nil {
		return err
	}
	if d := rec.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "trace: wrote %d events to %s (%d older events dropped; raise -trace-cap)\n", rec.Len(), path, d)
	} else {
		fmt.Fprintf(os.Stderr, "trace: wrote %d events to %s\n", rec.Len(), path)
	}
	return nil
}

// WriteTimeline writes tl's windows to path as JSONL, reporting on
// stderr when the ring dropped older windows.
func WriteTimeline(path string, tl *obs.Timeline) error {
	if err := writeFile(path, tl.WriteJSONL); err != nil {
		return err
	}
	if d := tl.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "timeline: wrote %d windows to %s (%d older windows dropped)\n", tl.Total()-d, path, d)
	}
	return nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
