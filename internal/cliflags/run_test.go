package cliflags

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"witag/internal/obs"
)

// newRun registers the shared flags on a private flag set and parses
// args into them, as a CLI's main would.
func newRun(t *testing.T, args ...string) *Run {
	t.Helper()
	r := &Run{Tool: "witag-test"}
	fs := flag.NewFlagSet("witag-test", flag.ContinueOnError)
	r.RegisterFlags(fs, Help{Unit: "trial"})
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunValidateNamesTheFlag(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-log-level", "loud"}, "-log-level"},
		{[]string{"-trace", "/nonexistent-dir/t.jsonl"}, "-trace"},
		{[]string{"-log", "/nonexistent-dir/l.jsonl"}, "-log"},
		{[]string{"-metrics-addr", "nonsense"}, "-metrics-addr"},
		{[]string{"-timeline-window", "0"}, "-timeline-window"},
	} {
		err := newRun(t, tc.args...).Validate()
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag) {
			t.Errorf("%v: Validate() = %v, want an error naming %s", tc.args, err, tc.flag)
		}
	}
	if err := newRun(t).Validate(); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
}

// TestRunCloseWritesArtifactsAndLedger opens a run with every sink on,
// records work through the campaign, and checks what Close leaves behind
// for each outcome.
func TestRunCloseWritesArtifactsAndLedger(t *testing.T) {
	for _, tc := range []struct {
		name    string
		err     error
		cancel  bool
		outcome string
	}{
		{"ok", nil, false, "ok"},
		{"error", errors.New("boom"), false, "error"},
		{"cancelled", context.Canceled, true, "cancelled"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			trace := filepath.Join(dir, "trace.jsonl")
			tl := filepath.Join(dir, "tl.jsonl")
			r := newRun(t, "-trace", trace, "-log", filepath.Join(dir, "run.jsonl"), "-timeline-window", "2")
			r.TimelinePath = tl
			r.LedgerDir = dir
			r.Artifacts = []string{trace, tl}
			if err := r.Validate(); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			camp, err := r.Open(ctx, "test")
			if err != nil {
				t.Fatal(err)
			}
			camp.Observer.Trace.Record(obs.Event{Kind: "round"})
			camp.ProgressStart(4)
			camp.TimelineRef().BeginSegment()
			camp.TimelineRef().NoteTrials(0, 4)
			if tc.cancel {
				cancel()
			}
			r.Close(ctx, tc.err)

			f, err := os.Open(filepath.Join(dir, obs.RunLedgerFile))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			recs, _, err := obs.ReadRunLedger(f)
			if err != nil || len(recs) != 1 {
				t.Fatalf("ledger: %d records, err %v", len(recs), err)
			}
			rec := recs[0]
			if rec.Tool != "witag-test" || rec.Campaign != "test" || rec.Outcome != tc.outcome {
				t.Errorf("ledger record %+v, want tool witag-test, campaign test, outcome %s", rec, tc.outcome)
			}
			if (tc.err != nil) != (rec.Error != "") {
				t.Errorf("ledger error %q for run error %v", rec.Error, tc.err)
			}
			if buf, err := os.ReadFile(trace); err != nil || !bytes.Contains(buf, []byte(`"kind":"round"`)) {
				t.Errorf("trace file %q, err %v; want the recorded round", buf, err)
			}
			if buf, err := os.ReadFile(tl); err != nil || !bytes.Contains(buf, []byte(`"kind":"logical"`)) {
				t.Errorf("timeline file %q, err %v; want logical windows", buf, err)
			}
			if st := camp.Status(); st.State == "running" {
				t.Errorf("campaign still running after Close: %+v", st)
			}
		})
	}
}

func TestRunOpenFailureLeavesNoLedger(t *testing.T) {
	dir := t.TempDir()
	// A directory cannot be created as the log file.
	r := newRun(t, "-log", dir)
	r.LedgerDir = dir
	if _, err := r.Open(context.Background(), "test"); err == nil || !strings.HasPrefix(err.Error(), "-log") {
		t.Fatalf("Open = %v, want a -log error", err)
	}
	if _, err := os.Stat(filepath.Join(dir, obs.RunLedgerFile)); !os.IsNotExist(err) {
		t.Errorf("a run that never opened wrote a ledger record (stat err %v)", err)
	}
}
