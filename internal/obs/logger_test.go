package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"reflect"
	"strings"
	"testing"
	"time"
)

// logAt writes one record stamped at, as the logger would at that wall
// time, so tests see real but fixed timestamps.
func logAt(t *testing.T, l *slog.Logger, at time.Time, level slog.Level, msg string, attrs ...slog.Attr) {
	t.Helper()
	if !l.Enabled(context.Background(), level) {
		return
	}
	r := slog.NewRecord(at, level, msg, 0)
	r.AddAttrs(attrs...)
	if err := l.Handler().Handle(context.Background(), r); err != nil {
		t.Fatal(err)
	}
}

// decodeLog decodes every line of a JSONL log with encoding/json,
// dropping the wall-clock keys (ts, wall_ms, rate_per_s).
func decodeLog(t *testing.T, log string) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSuffix(log, "\n"), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		delete(m, "ts")
		delete(m, "wall_ms")
		delete(m, "rate_per_s")
		out = append(out, m)
	}
	return out
}

func TestJSONLHandlerFixedFieldOrder(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, slog.LevelInfo).With(slog.String("campaign", "bench"))
	origin := time.Unix(1700000000, 0)
	logAt(t, log, origin.Add(time.Second), slog.LevelInfo, "run started",
		slog.Int("runs", 3), slog.Float64("gain", 68.5), slog.Bool("ok", true))
	log.Debug("filtered out")
	logAt(t, log, origin.Add(2*time.Second+5*time.Millisecond), slog.LevelWarn, "stall", slog.Int("rounds", 12))

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2 (debug filtered):\n%s", len(lines), buf.String())
	}
	want0 := `{"ts":"2023-11-14T22:13:21Z","level":"INFO","msg":"run started","campaign":"bench","runs":3,"gain":68.5,"ok":true}`
	if lines[0] != want0 {
		t.Errorf("line 0:\n got %s\nwant %s", lines[0], want0)
	}
	want1 := `{"ts":"2023-11-14T22:13:22.005Z","level":"WARN","msg":"stall","campaign":"bench","rounds":12}`
	if lines[1] != want1 {
		t.Errorf("line 1:\n got %s\nwant %s", lines[1], want1)
	}
}

func TestJSONLHandlerLevelGate(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, slog.LevelError)
	log.Info("no")
	log.Warn("no")
	log.Error("yes")
	if n := strings.Count(buf.String(), "\n"); n != 1 {
		t.Fatalf("LevelError handler wrote %d lines, want 1:\n%s", n, buf.String())
	}
}

// A log line must stay JSON whatever a string attr holds: control
// characters, quotes and non-ASCII text round-trip through
// encoding/json unchanged.
func TestLogLinesAreValidJSON(t *testing.T) {
	var buf bytes.Buffer
	c := NewCampaign("odd\x01id", CampaignOptions{LogW: &buf})
	detail := "bad\x01byte \a bell \"quoted\" naïve 測試 \u2028"
	c.PublishAnomaly("trial_failed", detail, 3)

	got := decodeLog(t, buf.String())
	if len(got) != 1 {
		t.Fatalf("got %d lines, want 1:\n%s", len(got), buf.String())
	}
	if got[0]["detail"] != detail || got[0]["campaign"] != "odd\x01id" {
		t.Fatalf("strings did not round-trip: %q", got[0])
	}
	if strings.Count(buf.String(), "\n") != 1 {
		t.Fatalf("a control character split the record across lines:\n%q", buf.String())
	}
}

func TestCanonicalizedLogsIdenticalAcrossClocks(t *testing.T) {
	// Two runs logging the same records at different wall times must be
	// identical once the wall-clock keys are dropped — the form the
	// determinism suite compares.
	emit := func(origin time.Time) string {
		var buf bytes.Buffer
		log := NewLogger(&buf, slog.LevelInfo).With(slog.String("campaign", "bench"))
		logAt(t, log, origin, slog.LevelInfo, "run started", slog.Int64("seed", 42))
		logAt(t, log, origin.Add(time.Second), slog.LevelInfo, "experiment finished",
			slog.String("experiment", "figure5"), slog.Int("trials", 96))
		logAt(t, log, origin.Add(2*time.Second), slog.LevelInfo, "run finished",
			slog.String("outcome", "ok"), slog.Int64("wall_ms", int64(origin.UnixNano()%1000)))
		return buf.String()
	}
	a := emit(time.Unix(1700000000, 0))
	b := emit(time.Unix(1800000000, 123))
	if a == b {
		t.Fatal("raw logs identical — the fixed clocks did not reach the log, test is vacuous")
	}
	ca, cb := decodeLog(t, a), decodeLog(t, b)
	if !reflect.DeepEqual(ca, cb) {
		t.Fatalf("logs differ beyond wall-clock keys:\n%s\nvs\n%s", a, b)
	}
	if len(ca) != 3 || ca[2]["msg"] != "run finished" {
		t.Fatalf("decoded log = %v, want three records ending in run finished", ca)
	}
}
