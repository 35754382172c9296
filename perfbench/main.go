// Command perfbench is the repository's performance benchmark: it drives
// one named workload through the simulator's public API for a fixed time,
// checks the science it produces, and prints end-to-end metrics (timed
// run) or per-layer metrics (traced run) as one JSON line. README.md
// lists the workloads and what each metric should move.
//
//	perfbench --workload los_fig5 --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"witag/internal/buildinfo"
)

// setupProbes is how many fresh processes measure set-up time per run.
const setupProbes = 25

// minReps is the fewest timed repetitions a run makes, whatever its
// budget, so every median and every repeat check rests on several samples.
const minReps = 3

func main() {
	os.Exit(run())
}

func run() int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := flag.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measurement time per run, in seconds")
	traceFlag := flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	setupProbe := flag.Bool("setup-probe", false, "make the workload's first calls, print \"ready\" and exit (set-up time measurement)")
	repetition := flag.Bool("repetition", false, "make the workload's first calls, then one repetition at --seed, print its report as JSON and exit (one repetition of a timed run)")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	ctx := context.Background()
	if *setupProbe {
		if err := w.warm(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Println("ready")
		return 0
	}
	if *repetition {
		return reportRep(ctx, w, *seed)
	}

	stamp, err := json.Marshal(fingerprint(w, *seed, *traceFlag == 1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(stamp))

	budget := time.Duration(*seconds) * time.Second
	var res *result
	if *traceFlag == 1 {
		res, err = tracedRun(ctx, w, *seed, budget)
	} else {
		res, err = timedRun(ctx, w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fingerprint identifies the code, toolchain and machine a result came
// from, so results from different machines are never compared.
func fingerprint(w workload, seed int64, traced bool) map[string]any {
	return map[string]any{
		"fingerprint": true,
		"workload":    w.name,
		"seed":        seed,
		"traced":      traced,
		"workers":     w.workers,
		"git_sha":     buildinfo.GitSHA(),
		"go_version":  runtime.Version(),
		"goarch":      runtime.GOARCH,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"cpu_model":   cpuModel(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// rep is one untraced repetition's resource use.
type rep struct {
	wall      time.Duration
	cpu       time.Duration // user + system, whole process
	rounds    int
	mallocs   uint64
	bytes     uint64
	gcCycles  uint32
	gcPauseNs uint64
}

// timedRep runs the workload once through the program's own entry point
// and measures it. No observer, campaign or timeline is attached.
func timedRep(ctx context.Context, w workload, seed int64, workers int) (rep, outcome, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t0 := time.Now()
	out, err := w.run(ctx, seed, workers)
	r := rep{wall: time.Since(t0), cpu: cpuTime() - cpu0, rounds: out.rounds}
	runtime.ReadMemStats(&m1)
	r.mallocs, r.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	r.gcCycles, r.gcPauseNs = m1.NumGC-m0.NumGC, m1.PauseTotalNs-m0.PauseTotalNs
	return r, out, err
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// repReport is what a --repetition process prints: one repetition's
// heap figures and outcome. Err is set when the execution itself failed.
type repReport struct {
	Rounds   int    `json:"rounds"`
	Mallocs  uint64 `json:"mallocs"`
	Bytes    uint64 `json:"bytes"`
	Digest   string `json:"digest"`
	Counts   string `json:"counts"`
	CheckErr string `json:"check_err,omitempty"`
	Note     string `json:"note,omitempty"`
	Err      string `json:"err,omitempty"`
}

// reportRep is the --repetition process: warm up as set-up does, make one
// repetition and print its report.
func reportRep(ctx context.Context, w workload, seed int64) int {
	if err := w.warm(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r, out, err := timedRep(ctx, w, seed, w.workers)
	rr := repReport{Rounds: r.rounds, Mallocs: r.mallocs, Bytes: r.bytes, Digest: out.digest, Counts: out.counts, Note: out.note}
	if out.checkErr != nil {
		rr.CheckErr = out.checkErr.Error()
	}
	if err != nil {
		rr.Err = err.Error()
	}
	if err := json.NewEncoder(os.Stdout).Encode(rr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// childRep makes one repetition in a fresh copy of this program and
// returns its measurement, its outcome and the copy's peak resident
// memory in MB. A fresh process per repetition makes peak memory a
// per-repetition figure, so a run can report its median: the
// high-water mark of one long-lived process moved by a fifth from run to
// run with the garbage collector's timing.
func childRep(ctx context.Context, w workload, seed int64) (rep, outcome, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return rep{}, outcome{}, 0, err
	}
	cmd := exec.CommandContext(ctx, exe, "--repetition", "--workload", w.name, "--seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	stdout, err := cmd.Output()
	wall := time.Since(t0)
	if err != nil {
		return rep{wall: wall}, outcome{}, 0, fmt.Errorf("repetition process: %w", err)
	}
	var rr repReport
	if err := json.Unmarshal(stdout, &rr); err != nil {
		return rep{wall: wall}, outcome{}, 0, fmt.Errorf("repetition process printed %q: %w", stdout, err)
	}
	if rr.Err != "" {
		return rep{wall: wall}, outcome{}, 0, errors.New(rr.Err)
	}
	out := outcome{digest: rr.Digest, rounds: rr.Rounds, counts: rr.Counts, note: rr.Note}
	if rr.CheckErr != "" {
		out.checkErr = errors.New(rr.CheckErr)
	}
	rssMB := float64(cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss) / 1024 // Linux reports KiB
	return rep{wall: wall, rounds: rr.Rounds, mallocs: rr.Mallocs, bytes: rr.Bytes}, out, rssMB, nil
}

// verify returns the outcome's science-check failure, or how it differs
// from the run's reference: the first repetition of the same seed.
func (o outcome) verify(ref outcome) error {
	if o.checkErr != nil {
		return o.checkErr
	}
	if o.rounds != ref.rounds || o.counts != ref.counts {
		return fmt.Errorf("round or delivery counts differ from the reference:\n%s%d rounds\nvs\n%s%d rounds", o.counts, o.rounds, ref.counts, ref.rounds)
	}
	if o.digest != "" && o.digest != ref.digest {
		return fmt.Errorf("science digest %s differs from the reference %s", o.digest, ref.digest)
	}
	return nil
}

// reportNote names a reference outcome's science note on stderr.
func reportNote(o outcome) {
	if o.note != "" {
		fmt.Fprintln(os.Stderr, "perfbench: note:", o.note)
	}
}

// checkShipped makes the workload's shipped-set-up science check, if it
// has one, as one more operation.
func checkShipped(ctx context.Context, w workload, t *tally) {
	if w.shipped != nil {
		t.note("science check at the shipped set-up", w.shipped(ctx))
	}
}

// tally counts operations and their failures.
type tally struct{ attempted, failed int }

// note counts one operation; a failure is reported on stderr.
func (t *tally) note(what string, err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", what, err)
	}
	return err == nil
}

// timedRun measures set-up, then repeats the workload untraced, each
// repetition in a fresh process, at least minReps times and until the
// budget is spent, and reports the end-to-end metrics as medians over the
// repetitions.
func timedRun(ctx context.Context, w workload, seed int64, budget time.Duration) (*result, error) {
	setup, err := measureSetup(ctx, w)
	if err != nil {
		return nil, err
	}
	var (
		t    tally
		ref  *outcome
		reps []rep
		rss  []float64
		last time.Duration
	)
	for start := time.Now(); t.attempted < minReps || time.Since(start)+last <= budget; {
		r, out, rssMB, err := childRep(ctx, w, seed)
		last = r.wall
		if err != nil {
			// The execution itself failed: nothing to measure, and
			// nothing a repetition would change.
			t.note(fmt.Sprintf("repetition %d", t.attempted+1), err)
			break
		}
		if ref == nil {
			ref = &out
			reportNote(out)
		}
		t.note(fmt.Sprintf("repetition %d", t.attempted+1), out.verify(*ref))
		reps = append(reps, r)
		rss = append(rss, rssMB)
	}
	if len(reps) == 0 {
		return nil, fmt.Errorf("every repetition of %s failed to execute", w.name)
	}
	col := func(f func(r rep) float64) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return median(xs)
	}
	values := map[string]float64{
		"setup_s":             setup,
		"alloc_mb_per_kround": col(func(r rep) float64 { return float64(r.bytes) / float64(r.rounds) * 1000 / 1e6 }),
		"allocs_per_round":    col(func(r rep) float64 { return float64(r.mallocs) / float64(r.rounds) }),
		"peak_rss_mb":         median(rss),
	}
	checkShipped(ctx, w, &t)
	res := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for name, v := range values {
		res.Metrics[name] = metric{v, endToEndUnits[name]}
	}
	return res, nil
}

// endToEndUnits is the unit of every end-to-end metric. Wall time, rounds
// per second, CPU per round and worker utilisation are not among them: on
// the host the benchmark was written on they did not repeat within a
// tenth, so the traced run reports them, unbounded, as untraced.* metrics.
var endToEndUnits = map[string]string{
	"setup_s":             "s",
	"alloc_mb_per_kround": "MB",
	"allocs_per_round":    "count",
	"peak_rss_mb":         "MB",
}

// measureSetup starts setupProbes fresh copies of this program, each of
// which initialises, makes the workload's first calls (warm) and says
// "ready", and returns the median time from process start to ready, in
// seconds.
func measureSetup(ctx context.Context, w workload) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	samples := make([]float64, setupProbes)
	for i := range samples {
		cmd := exec.CommandContext(ctx, exe, "--setup-probe", "--workload", w.name)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		samples[i] = time.Since(t0).Seconds()
		if err := cmd.Wait(); err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		if rerr != nil || line != "ready\n" {
			return 0, fmt.Errorf("set-up probe said %q (%v), want ready", line, rerr)
		}
	}
	return median(samples), nil
}
