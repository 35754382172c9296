package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"witag/internal/obs"
	"witag/internal/regress"
)

// These tests drive the real flag surface: TestMain re-executes the test
// binary with runMainEnv set, and the child runs main() exactly as the
// installed command would, so no `go build` is needed.
//
// The goldens under testdata/ pin the CLI's observable behaviour (stdout
// and -h text). They were captured from the CLI as it stood before its
// run wiring moved into internal/cliflags, with
//
//	go test ./cmd/witag-bench -update
//
// and must only be regenerated for an intended change of output.

const runMainEnv = "WITAG_BENCH_RUN_MAIN"

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current CLI")

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		os.Args = append([]string{"witag-bench"}, os.Args[1:]...)
		flag.CommandLine = flag.NewFlagSet("witag-bench", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs witag-bench with args in dir and returns stdout, stderr
// and the exit code.
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

var fig5Args = []string{"-experiment", "fig5", "-runs", "1", "-rounds", "40"}

func TestHelpMatchesGolden(t *testing.T) {
	_, stderr, code := runCLI(t, t.TempDir(), "-h")
	if code != 0 {
		t.Fatalf("-h exited %d", code)
	}
	checkGolden(t, "help.golden", stderr)
}

func TestFig5ArtifactsLedgerAndTrace(t *testing.T) {
	dir := t.TempDir()
	jsonDir := filepath.Join(dir, "json")
	traceDir := filepath.Join(dir, "trace")
	// -log names a file inside the not-yet-created -json directory, as
	// `make gate` does: the directory flags are created before the file
	// flags are checked.
	logPath := filepath.Join(jsonDir, "LOG_bench.jsonl")
	args := append(append([]string(nil), fig5Args...),
		"-json", jsonDir, "-log", logPath, "-timeline", "-trace-out", traceDir)
	stdout, stderr, code := runCLI(t, dir, args...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	checkGolden(t, "fig5.golden", stdout)

	wantJSON := []string{"BENCH_fig5.json", "BENCH_fig5.metrics.json", "LOG_bench.jsonl", "PROF_fig5.json", obs.RunLedgerFile, "TL_fig5.jsonl"}
	if got := listDir(t, jsonDir); !reflect.DeepEqual(got, wantJSON) {
		t.Errorf("-json artifacts %v, want %v", got, wantJSON)
	}
	if got, want := listDir(t, traceDir), []string{"TRACE_fig5.jsonl"}; !reflect.DeepEqual(got, want) {
		t.Errorf("-trace-out artifacts %v, want %v", got, want)
	}
	f, err := os.Open(filepath.Join(jsonDir, obs.RunLedgerFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, skipped, err := obs.ReadRunLedger(f)
	if err != nil || skipped != 0 || len(recs) != 1 {
		t.Fatalf("ledger: %d records, %d skipped, err %v; want one record", len(recs), skipped, err)
	}
	rec := recs[0]
	if rec.Tool != "witag-bench" || rec.Outcome != "ok" || rec.Error != "" {
		t.Errorf("ledger record %+v, want tool witag-bench, outcome ok", rec)
	}
	wantArtifacts := []string{"BENCH_fig5.json", "BENCH_fig5.metrics.json", "PROF_fig5.json",
		"TL_fig5.jsonl", filepath.Join(traceDir, "TRACE_fig5.jsonl")}
	if !reflect.DeepEqual(rec.Artifacts, wantArtifacts) {
		t.Errorf("ledger artifacts %v, want %v", rec.Artifacts, wantArtifacts)
	}

	// One "round" event per query round: trials × rounds, with the trial
	// count read from the experiment's provenance stamp.
	arts, err := regress.LoadDir(jsonDir)
	if err != nil {
		t.Fatal(err)
	}
	prov := arts["fig5"].SeriesProv
	if prov == nil || prov.Trials == 0 {
		t.Fatalf("BENCH_fig5.json provenance %+v carries no trial count", prov)
	}
	if got, want := roundEvents(t, filepath.Join(traceDir, "TRACE_fig5.jsonl")), int(prov.Trials)*40; got != want {
		t.Errorf("trace holds %d round events, want trials×rounds = %d", got, want)
	}

	// Every log line is JSON, and the run's milestones are all there.
	msgs := logMessages(t, logPath)
	for _, want := range []string{"run started", "experiment finished", "run finished"} {
		if !slices.Contains(msgs, want) {
			t.Errorf("-log messages %q lack %q", msgs, want)
		}
	}
}

func TestStdoutDeterministicAcrossWorkerCounts(t *testing.T) {
	dir := t.TempDir()
	var outs []string
	for _, workers := range []string{"1", "4"} {
		trace := filepath.Join(dir, "trace"+workers+".jsonl")
		args := append(append([]string(nil), fig5Args...), "-parallel", workers, "-trace", trace)
		stdout, stderr, code := runCLI(t, dir, args...)
		if code != 0 {
			t.Fatalf("-parallel %s: exit %d: %s", workers, code, stderr)
		}
		outs = append(outs, stdout)
		// -trace keeps one ring for the whole run: 7 distances × 1 run.
		if got := roundEvents(t, trace); got != 7*40 {
			t.Errorf("-parallel %s: -trace holds %d round events, want %d", workers, got, 7*40)
		}
	}
	if outs[0] != outs[1] {
		t.Fatalf("stdout differs between -parallel 1 and 4:\n%s\n---\n%s", outs[0], outs[1])
	}
	checkGolden(t, "fig5.golden", outs[0])
}

func TestBadSelectorExitsWithUsageError(t *testing.T) {
	stdout, stderr, code := runCLI(t, t.TempDir(), "-experiment", "fig9")
	if code != 1 || stdout != "" {
		t.Fatalf("exit %d, stdout %q; want exit 1 and no output", code, stdout)
	}
	checkGolden(t, "bad_experiment.golden", stderr)
}

// TestAblationsMatchGolden pins every ablation table the CLI prints; the
// golden was captured before the ablations moved onto one table.
func TestAblationsMatchGolden(t *testing.T) {
	stdout, stderr, code := runCLI(t, t.TempDir(), "-experiment", "ablations", "-rounds", "40")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	checkGolden(t, "ablations.golden", stdout)
}
