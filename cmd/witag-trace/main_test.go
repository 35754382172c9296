package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"witag/internal/cliflags"
	"witag/internal/experiments"
	"witag/internal/obs"
)

// These tests drive the real subcommands: TestMain re-executes the test
// binary with runMainEnv set, and the child runs main() exactly as the
// installed command would, so no `go build` is needed.
//
// The inputs are recorded inside the test the way witag-bench -trace-out
// and -timeline record them: a small robustness sweep (bursty faults, so
// anomalies fire and align onto windows) under a campaign carrying a
// logical timeline, written with cliflags.WriteTrace/WriteTimeline. The
// goldens under testdata/ pin the subcommands' stdout and must only be
// regenerated, with
//
//	go test ./cmd/witag-trace -update
//
// for an intended change of output.

const runMainEnv = "WITAG_TRACE_RUN_MAIN"

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current CLI")

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		os.Args = append([]string{"witag-trace"}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs witag-trace with args and returns stdout, stderr and the
// exit code.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
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

// recordCampaign runs the robustness sweep (seed 42, 8 transfers per
// point and mode, one worker, 16-trial windows) and writes its trace and
// timeline under dir.
func recordCampaign(t *testing.T, dir string) (tracePath, tlPath string) {
	t.Helper()
	camp := obs.NewCampaign("bench", obs.CampaignOptions{})
	tl := obs.NewTimeline(camp.Registry, obs.TimelineConfig{WindowTrials: 16})
	camp.SetTimeline(tl)
	rec := obs.NewRecorder(0)
	defer experiments.SetObserver(experiments.SetObserver(obs.NewObserver(camp.Registry, rec)))
	defer experiments.SetCampaign(experiments.SetCampaign(camp))

	cfg := experiments.DefaultRobustnessConfig()
	cfg.Transfers = 8
	cfg.Workers = 1
	if _, err := experiments.RobustnessCtx(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	tl.Flush()
	tracePath = filepath.Join(dir, "TRACE_robustness.jsonl")
	tlPath = filepath.Join(dir, "TL_robustness.jsonl")
	if err := cliflags.WriteTrace(tracePath, rec); err != nil {
		t.Fatal(err)
	}
	if err := cliflags.WriteTimeline(tlPath, tl); err != nil {
		t.Fatal(err)
	}
	return tracePath, tlPath
}

func TestAnalyzeAlignsAnomaliesOntoTimeline(t *testing.T) {
	trace, tl := recordCampaign(t, t.TempDir())
	stdout, stderr, code := runCLI(t, "analyze", "-timeline", tl, trace)
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	checkGolden(t, "analyze.golden", stdout)
}

func TestFlagExitsOneOnAnomalies(t *testing.T) {
	trace, _ := recordCampaign(t, t.TempDir())
	stdout, stderr, code := runCLI(t, "flag", "-ber-z", "1.5", trace)
	if code != 1 || stderr != "" {
		t.Fatalf("exit %d (want 1), stderr %q", code, stderr)
	}
	checkGolden(t, "flag.golden", stdout)
}

func TestReplayVerifiesFlaggedTrial(t *testing.T) {
	trace, _ := recordCampaign(t, t.TempDir())
	// Trial 46 (robust/lb=0.6/tr=6/mode=arq) is an arq_stall anomaly in
	// analyze.golden.
	stdout, stderr, code := runCLI(t, "replay", "-trial", "46", trace)
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	checkGolden(t, "replay.golden", stdout)
}

func TestAnalyzeWarnsOnTruncatedTimeline(t *testing.T) {
	dir := t.TempDir()
	trace, tl := recordCampaign(t, dir)
	buf, err := os.ReadFile(tl)
	if err != nil {
		t.Fatal(err)
	}
	// The equivalent of `head -c N`: the file ends inside a window record
	// and has no summary.
	cut := filepath.Join(dir, "TL_cut.jsonl")
	if err := os.WriteFile(cut, buf[:len(buf)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := runCLI(t, "analyze", "-timeline", cut, trace)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	const want = "witag-trace: warning: timeline file has no summary record — it was truncated mid-write\n"
	if stderr != want {
		t.Errorf("stderr = %q, want %q", stderr, want)
	}
}
