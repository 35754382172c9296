package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"reflect"
	"slices"
	"strings"
	"testing"

	"witag/internal/obs"
)

// Campaign logging rides the same determinism contract as the rest of the
// obs layer (DESIGN.md §8, §15): a campaign scope with a live logger and
// event broker is a pure sink, so installing one changes no result byte,
// and the decoded log (wall-clock fields dropped) is invariant across
// worker counts. `make determinism` runs this test.

// loggedRobustness runs the shared small sweep under a full campaign
// scope — logger, SSE subscriber, trace ring — and returns the result
// plus the log, each line decoded with encoding/json and stripped of its
// wall-clock keys (ts, wall_ms, rate_per_s).
func loggedRobustness(t *testing.T, workers int) (*RobustnessResult, []map[string]any) {
	t.Helper()
	var logBuf bytes.Buffer
	camp := obs.NewCampaign("test", obs.CampaignOptions{
		TraceCap: 1 << 12,
		LogW:     &logBuf,
		LogLevel: slog.LevelDebug,
	})
	// A live watcher with a tiny queue: even a slow SSE client dropping
	// events must not touch the science path.
	_, cancel := camp.Events.Subscribe(1)
	defer cancel()
	defer SetObserver(SetObserver(camp.Observer))
	defer SetCampaign(SetCampaign(camp))

	res, err := RobustnessCtx(context.Background(), obsRobustnessConfig(workers))
	if err != nil {
		t.Fatal(err)
	}

	// The harness-level log lines a CLI would write: sequential call
	// sites only, with deterministic fields drawn from the result.
	camp.Logger.Info("sweep finished",
		slog.Int("points", len(res.Points)), slog.Int("workers_masked", 0))
	camp.Finish(nil)

	var lines []map[string]any
	for _, line := range strings.Split(strings.TrimSuffix(logBuf.String(), "\n"), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		delete(m, "ts")
		delete(m, "wall_ms")
		delete(m, "rate_per_s")
		lines = append(lines, m)
	}
	return res, lines
}

func TestLoggingDoesNotPerturbResults(t *testing.T) {
	// Bare run: no observer, no campaign, no logger.
	defer SetObserver(SetObserver(nil))
	defer SetCampaign(SetCampaign(nil))
	bare, err := RobustnessCtx(context.Background(), obsRobustnessConfig(manyWorkers()))
	if err != nil {
		t.Fatal(err)
	}

	logged, logParallel := loggedRobustness(t, manyWorkers())
	if !reflect.DeepEqual(bare, logged) {
		bb, _ := json.Marshal(bare)
		bl, _ := json.Marshal(logged)
		t.Fatalf("attaching a logging campaign changed the result:\nbare:   %s\nlogged: %s", bb, bl)
	}

	// Worker-count invariance of the log: the wall-clock fields are
	// dropped, everything left is deterministic.
	_, logSerial := loggedRobustness(t, 1)
	if !reflect.DeepEqual(logSerial, logParallel) {
		t.Fatalf("worker count changed the log:\n1 worker:\n%v\nparallel:\n%v", logSerial, logParallel)
	}
	// Guard against the vacuous pass: the log must actually have lines.
	if !slices.ContainsFunc(logParallel, func(m map[string]any) bool { return m["msg"] == "sweep finished" }) {
		t.Fatalf("campaign log missing expected line:\n%v", logParallel)
	}
}
