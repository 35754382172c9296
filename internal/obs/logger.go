package obs

import (
	"io"
	"log/slog"
	"time"
)

// Structured logging for campaigns: log/slog's JSON handler, one object
// per line (JSONL, the same framing as the trace files it sits beside).
//
//   - Keys come in a fixed order: ts, level, msg, campaign (bound by
//     NewCampaign), then the record's attrs in call order, so two runs
//     logging the same things produce line-for-line comparable files.
//   - "ts" (the record time, UTC RFC3339Nano) is wall clock, as are the
//     "wall_ms" and "rate_per_s" attrs; everything else a CLI logs is a
//     pure function of the run.
//   - Logging is a pure sink: nothing in the simulation reads a logger,
//     and the call sites run sequentially (per experiment, per run),
//     never per trial on worker goroutines — so enabling a log file
//     cannot perturb or reorder science output.
//
// The handler writes each record with a single Write under its own
// mutex, so a crashed run keeps every line it logged.

// NewLogger returns a JSONL logger writing records at or above level
// (nil: slog.LevelInfo) to w.
func NewLogger(w io.Writer, level slog.Leveler) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{
		Level: level,
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if len(groups) == 0 && a.Key == slog.TimeKey {
				return slog.String("ts", a.Value.Time().UTC().Format(time.RFC3339Nano))
			}
			return a
		},
	}))
}
