package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"witag/internal/obs"
)

// These tests drive the real flag surface: TestMain re-executes the test
// binary with runMainEnv set, and the child runs main() exactly as the
// installed command would, so no `go build` is needed.
//
// The goldens under testdata/ pin the CLI's observable behaviour (stdout
// and -h text). They were captured from the CLI as it stood before its
// run wiring moved into internal/cliflags, with
//
//	go test ./cmd/witag-sim -update
//
// and must only be regenerated for an intended change of output.

const runMainEnv = "WITAG_SIM_RUN_MAIN"

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current CLI")

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		os.Args = append([]string{"witag-sim"}, os.Args[1:]...)
		flag.CommandLine = flag.NewFlagSet("witag-sim", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs witag-sim with args in dir and returns stdout, stderr and
// the exit code.
func runCLI(t *testing.T, dir string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errb.String(), code
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the golden:\n--- got\n%s--- want\n%s", name, got, want)
	}
}

func readLedger(t *testing.T, dir string) []obs.RunRecord {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, obs.RunLedgerFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, skipped, err := obs.ReadRunLedger(f)
	if err != nil || skipped != 0 {
		t.Fatalf("ledger: %v (%d lines skipped)", err, skipped)
	}
	return recs
}

func listDir(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// roundEvents counts the "round" events in a JSONL trace file.
func roundEvents(t *testing.T, path string) int {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range bytes.Split(bytes.TrimSpace(buf), []byte("\n")) {
		var ev obs.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if ev.Kind == "round" {
			n++
		}
	}
	return n
}

// logMessages decodes every line of a -log file with encoding/json and
// returns the records' msg fields in order.
func logMessages(t *testing.T, path string) []string {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, line := range bytes.Split(bytes.TrimSpace(buf), []byte("\n")) {
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		msg, _ := rec["msg"].(string)
		msgs = append(msgs, msg)
	}
	return msgs
}

func TestHelpMatchesGolden(t *testing.T) {
	_, stderr, code := runCLI(t, t.TempDir(), "-h")
	if code != 0 {
		t.Fatalf("-h exited %d", code)
	}
	checkGolden(t, "help.golden", stderr)
}

func TestStdoutMatchesGoldens(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"plain.golden", []string{"-runs", "3", "-rounds", "40"}},
		{"fault_bursty.golden", []string{"-runs", "3", "-rounds", "40", "-fault", "bursty"}},
		{"transfer_fountain.golden", []string{"-runs", "3", "-rounds", "40", "-transfer", "fountain"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			stdout, stderr, code := runCLI(t, t.TempDir(), tc.args...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			checkGolden(t, tc.golden, stdout)
		})
	}
}

func TestObservabilityArtifactsAndLedger(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	logPath := filepath.Join(dir, "run.jsonl")
	tl := filepath.Join(dir, "tl.jsonl")
	stdout, stderr, code := runCLI(t, dir, "-runs", "3", "-rounds", "40",
		"-trace", trace, "-log", logPath, "-timeline", tl)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	// Observability is a pure sink: stdout is the plain run's.
	checkGolden(t, "plain.golden", stdout)

	if got, want := listDir(t, dir), []string{obs.RunLedgerFile, "run.jsonl", "tl.jsonl", "trace.jsonl"}; !reflect.DeepEqual(got, want) {
		t.Errorf("artifacts %v, want %v", got, want)
	}
	recs := readLedger(t, dir)
	if len(recs) != 1 {
		t.Fatalf("%d ledger records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Tool != "witag-sim" || rec.Outcome != "ok" || rec.Error != "" {
		t.Errorf("ledger record %+v, want tool witag-sim, outcome ok", rec)
	}
	if want := []string{trace, tl, logPath}; !reflect.DeepEqual(rec.Artifacts, want) {
		t.Errorf("ledger artifacts %v, want %v", rec.Artifacts, want)
	}
	if got := roundEvents(t, trace); got != 3*40 {
		t.Errorf("trace holds %d round events, want runs×rounds = %d", got, 3*40)
	}
	if got, want := logMessages(t, logPath), []string{"run started", "run finished"}; !reflect.DeepEqual(got, want) {
		t.Errorf("-log messages %q, want %q", got, want)
	}
}

func TestFailedRunLedgerOutcome(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "run.jsonl")
	_, stderr, code := runCLI(t, dir, "-ap", "garbage", "-log", logPath)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if want := "witag-sim: point \"garbage\" must be x,y\n"; stderr != want {
		t.Errorf("stderr %q, want %q", stderr, want)
	}
	recs := readLedger(t, dir)
	if len(recs) != 1 || recs[0].Outcome != "error" || recs[0].Error == "" {
		t.Fatalf("ledger %+v, want one error record", recs)
	}
	if want := []string{logPath}; !reflect.DeepEqual(recs[0].Artifacts, want) {
		t.Errorf("ledger artifacts %v, want %v", recs[0].Artifacts, want)
	}
}

func TestStdoutDeterministicAcrossWorkerCounts(t *testing.T) {
	var outs []string
	for _, workers := range []string{"1", "4"} {
		stdout, stderr, code := runCLI(t, t.TempDir(), "-runs", "3", "-rounds", "40", "-fault", "bursty", "-parallel", workers)
		if code != 0 {
			t.Fatalf("-parallel %s: exit %d: %s", workers, code, stderr)
		}
		outs = append(outs, stdout)
	}
	if outs[0] != outs[1] {
		t.Fatalf("stdout differs between -parallel 1 and 4:\n%s\n---\n%s", outs[0], outs[1])
	}
}
