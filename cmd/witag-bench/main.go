// Command witag-bench regenerates every figure and analytical table of the
// WiTAG paper from the simulation, printing the same rows/series the paper
// reports plus this reproduction's measurements.
//
// Usage:
//
//	witag-bench [-experiment all|fig3|fig5|fig6|s41|compare|power|ablations|robustness|coding]
//	            [-seed N] [-runs N] [-rounds N] [-parallel N] [-json DIR]
//	            [-fault PROFILE] [-transfers N]
//	            [-transfer all|arq|fountain|rs] [-traffic all|PROFILE]
//	            [-profile DIR] [-metrics-addr HOST:PORT] [-trace FILE]
//	            [-trace-out DIR] [-trace-cap N] [-progress]
//	            [-timeline] [-timeline-window N]
//	            [-log FILE] [-log-level debug|info|warn|error] [-version]
//
// Scale note: "-rounds" stands in for the paper's one-minute measurement
// windows; the defaults keep the full suite under a minute of wall time.
// Raise them to tighten the statistics.
//
// Monte-Carlo trials fan across -parallel workers (default: all CPUs) via
// internal/sim; results are byte-identical for every worker count, so
// -parallel only changes the wall clock. Ctrl-C cancels cleanly.
//
// With -json DIR, each experiment additionally writes its series as
// machine-readable BENCH_<name>.json under DIR, so successive runs (and
// future PRs) can diff trajectories instead of parsing tables — plus a
// BENCH_<name>.metrics.json holding the experiment's metrics-registry
// delta (rounds, subframe verdicts, faults injected, ARQ activity) and a
// PROF_<name>.json phase-attribution profile (per-phase span quantiles,
// wall-time shares, allocations per trial) the gate budgets against.
//
// With -profile DIR, every experiment is additionally wrapped in pprof
// capture: cpu_<name>.pprof across the run, then heap_<name>.pprof and
// allocs_<name>.pprof after a forced GC — ready for `go tool pprof` —
// and the phase-attribution table is printed to stderr.
//
// Observability (all opt-in, none changes any result byte):
//
//	-metrics-addr :9090   serve the campaign hub for the lifetime of the
//	                      run: Prometheus text at /metrics, campaign list
//	                      and status at /campaigns, a live SSE event
//	                      stream at /campaigns/bench/events, plus
//	                      /debug/vars and /debug/pprof/ (":0" picks a
//	                      port, printed on stderr)
//	-trace trace.jsonl    record structured per-round/per-transfer events
//	                      into a bounded ring (-trace-cap events) and write
//	                      them as JSONL on exit
//	-trace-out DIR        like -trace, but one fresh ring per experiment,
//	                      written as TRACE_<name>.jsonl under DIR — the
//	                      files witag-trace analyze/flag/replay consume
//	-progress             live trials/sec and ETA on stderr
//	-timeline             capture a windowed metric time-series per
//	                      experiment (one logical window every
//	                      -timeline-window completed trials) and write it
//	                      as TL_<name>.jsonl beside the BENCH artifacts;
//	                      requires -json DIR. Logical windows are
//	                      deterministic: the TL bytes are identical at
//	                      any -parallel. Live view:
//	                      /campaigns/bench/timeseries with -metrics-addr
//	-log run.jsonl        write the campaign's structured JSONL log there;
//	                      with -json DIR, a RUNS.jsonl run-ledger line is
//	                      also appended under DIR
//	                      (-log-level picks the floor: debug…error)
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"witag/internal/buildinfo"
	"witag/internal/cliflags"
	"witag/internal/experiments"
	"witag/internal/fault"
	"witag/internal/obs"
	"witag/internal/perf"
	"witag/internal/regress"
	"witag/internal/sim"
	"witag/internal/traffic"
)

// experimentNames lists every -experiment value, in run order.
var experimentNames = []string{"all", "fig3", "fig5", "fig6", "s41", "compare", "power", "ablations", "robustness", "coding"}

type benchConfig struct {
	experiment string
	seed       int64
	runs       int
	rounds     int
	parallel   int
	jsonDir    string
	faultProf  string
	transfers  int
	transfer   string
	trafficSel string
	profileDir string
	traceOut   string
	timeline   bool
}

func main() {
	var cfg benchConfig
	flag.StringVar(&cfg.experiment, "experiment", "all", "which experiment to run: "+strings.Join(experimentNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 42, "root random seed")
	flag.IntVar(&cfg.runs, "runs", 4, "measurement repetitions (figure 5; figure 6 uses 60)")
	flag.IntVar(&cfg.rounds, "rounds", 700, "query rounds per measurement run")
	flag.IntVar(&cfg.parallel, "parallel", 0, "concurrent trial workers; <= 0 means all CPUs")
	flag.StringVar(&cfg.jsonDir, "json", "", "directory to write BENCH_<name>.json series into (empty: off)")
	flag.StringVar(&cfg.faultProf, "fault", "bursty", "fault profile for the robustness sweep: "+strings.Join(fault.Names(), ", "))
	flag.IntVar(&cfg.transfers, "transfers", 100, "transfers per sweep point per mode (robustness)")
	flag.StringVar(&cfg.transfer, "transfer", "all", "transfer scheme for the coding sweep: all, "+strings.Join(experiments.CodingSchemes, ", "))
	flag.StringVar(&cfg.trafficSel, "traffic", "all", "ambient-traffic profile for the coding sweep: all (the full profile grid), "+strings.Join(traffic.Names(), ", "))
	flag.StringVar(&cfg.profileDir, "profile", "", "write cpu/heap/allocs pprof profiles per experiment under this directory (empty: off)")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "write one TRACE_<name>.jsonl per experiment under this directory (empty: off)")
	flag.BoolVar(&cfg.timeline, "timeline", false, "write a TL_<name>.jsonl windowed time-series per experiment under -json DIR")
	rf := &cliflags.Run{Tool: "witag-bench"}
	rf.RegisterFlags(flag.CommandLine, cliflags.Help{
		Unit:        "trial",
		MetricsAddr: "serve /metrics, /debug/vars and /debug/pprof/ on this address during the run (empty: off)",
		Trace:       "write per-round/per-transfer trace events as JSONL to this file (empty: off)",
		Log:         "write the campaign's structured JSONL log to this file (empty: off)",
	})
	cliflags.Main("witag-bench", func(ctx context.Context) error { return run(ctx, cfg, rf) })
}

// profiled runs fn under a CPU profile written to cpu_<name>.pprof under
// dir, then snapshots heap_<name>.pprof and allocs_<name>.pprof after a
// forced GC, so the heap numbers reflect live data, not whatever the
// collector hadn't reached yet. An empty dir runs fn unprofiled.
func profiled(dir, name string, fn func() error) error {
	if dir == "" {
		return fn()
	}
	cpu, err := os.Create(filepath.Join(dir, "cpu_"+name+".pprof"))
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return err
	}
	err = fn()
	pprof.StopCPUProfile()
	if cerr := cpu.Close(); err == nil {
		err = cerr
	}
	runtime.GC()
	for _, kind := range []string{"heap", "allocs"} {
		f, perr := os.Create(filepath.Join(dir, kind+"_"+name+".pprof"))
		if perr == nil {
			perr = pprof.Lookup(kind).WriteTo(f, 0)
			if cerr := f.Close(); perr == nil {
				perr = cerr
			}
		}
		if err == nil {
			err = perr
		}
	}
	return err
}

// provenance builds the stamp shared by every artifact of this run. The
// timestamp is taken here, once, in the CLI — nothing on the
// deterministic experiment path reads the clock.
func provenance(cfg benchConfig) regress.Provenance {
	workers := cfg.parallel
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return regress.Provenance{
		GitSHA:         buildinfo.GitSHA(),
		GoVersion:      runtime.Version(),
		TimestampUTC:   time.Now().UTC().Format(time.RFC3339),
		Seed:           cfg.seed,
		Runs:           cfg.runs,
		Rounds:         cfg.rounds,
		Transfers:      cfg.transfers,
		Workers:        workers,
		FaultProfile:   cfg.faultProf,
		TransferScheme: cfg.transfer,
		TrafficProfile: cfg.trafficSel,
	}
}

// result is what the six regular experiments return: the printed table
// and the paper's qualitative shape claims.
type result interface {
	Render() string
	ShapeChecks() error
}

func run(ctx context.Context, cfg benchConfig, rf *cliflags.Run) (err error) {
	// Up-front flag validation, shared with the other CLIs via
	// internal/cliflags: reject unknown selectors and unusable paths
	// before any work, naming the flag and the valid choices — a typo
	// must not silently run nothing.
	for _, v := range []error{
		cliflags.Choice("-experiment", cfg.experiment, experimentNames, false),
		cliflags.FaultProfile("-fault", cfg.faultProf, false),
		cliflags.Choice("-transfer", cfg.transfer, append([]string{"all"}, experiments.CodingSchemes...), false),
		cliflags.TrafficProfile("-traffic", cfg.trafficSel, false, true),
	} {
		if v != nil {
			return v
		}
	}
	if rf.TracePath != "" && cfg.traceOut != "" {
		return fmt.Errorf("-trace and -trace-out are exclusive: one ring for the whole run, or one per experiment")
	}
	if cfg.timeline && cfg.jsonDir == "" {
		return fmt.Errorf("-timeline writes TL_<name>.jsonl beside the BENCH artifacts and needs -json DIR")
	}
	// The directories are created first, so -log and -trace may name
	// files inside them.
	for _, v := range []error{
		cliflags.OutputDir("-profile", cfg.profileDir),
		cliflags.OutputDir("-json", cfg.jsonDir),
		cliflags.OutputDir("-trace-out", cfg.traceOut),
		rf.Validate(),
	} {
		if v != nil {
			return v
		}
	}

	// Campaign wiring: this invocation is one campaign scope. Every
	// system, injector, transferer and runner the harnesses build is
	// instrumented through it; attaching it draws no RNG values and
	// changes no output byte. The ledger lands beside the BENCH
	// artifacts (no -json directory, no ledger).
	runProv := provenance(cfg)
	rf.LedgerDir, rf.Provenance = cfg.jsonDir, runProv
	camp, err := rf.Open(ctx, "bench",
		slog.String("experiment", cfg.experiment), slog.Int64("seed", cfg.seed),
		slog.Int("runs", cfg.runs), slog.Int("rounds", cfg.rounds))
	if err != nil {
		return err
	}
	defer func() { rf.Close(ctx, err) }()
	defer experiments.SetObserver(experiments.SetObserver(camp.Observer))
	defer experiments.SetCampaign(experiments.SetCampaign(camp))
	reg := camp.Registry

	// emit writes an experiment's series plus the metrics-registry delta
	// accumulated since the previous experiment finished, both wrapped in
	// a provenance envelope naming what produced them, plus the delta's
	// phase-attribution profile as PROF_<name>.json. The trial count is
	// the runner's own tally for this experiment, read from the delta.
	lastSnap := reg.Snapshot()
	emit := func(name string, v any) error {
		now := reg.Snapshot()
		delta := now.Delta(lastSnap)
		lastSnap = now
		rep := perf.FromSnapshot(delta)
		if cfg.profileDir != "" && rep.Trials > 0 {
			fmt.Fprintf(os.Stderr, "perf %s:\n%s", name, rep.Render())
		}
		// Low coverage on a span-bearing experiment means untimed work
		// crept into the trials. Analytic experiments (fig3, s41, compare)
		// record no spans at all and stay quiet — losing instrumentation
		// entirely is the gate's structural check, not this warning.
		spansFired := slices.ContainsFunc(rep.Phases, func(ps perf.PhaseStat) bool { return ps.Count > 0 })
		if spansFired && rep.Trials > 0 && rep.Coverage < 0.9 {
			fmt.Fprintf(os.Stderr, "perf: %s: spans attribute only %.1f%% of trial wall time\n", name, 100*rep.Coverage)
		}
		// Live phase-attribution snapshot for /campaigns/bench/events
		// watchers, mirroring the PROF artifact written below.
		rep.Publish(camp, name)
		camp.Logger.Info("experiment finished", slog.String("experiment", name),
			slog.Int64("trials", delta.Counters["runner.trials_started"]),
			slog.Int64("rounds", delta.Counters["core.rounds"]))
		if cfg.jsonDir == "" {
			return nil
		}
		prov := runProv
		prov.Experiment = name
		prov.Trials = delta.Counters["runner.trials_started"]
		if err := regress.WriteSeries(cfg.jsonDir, name, prov, v); err != nil {
			return err
		}
		if err := regress.WriteMetrics(cfg.jsonDir, name, prov, delta); err != nil {
			return err
		}
		if err := regress.WriteProf(cfg.jsonDir, name, prov, rep); err != nil {
			return err
		}
		rf.Artifacts = append(rf.Artifacts,
			"BENCH_"+name+".json", "BENCH_"+name+".metrics.json", "PROF_"+name+".json")
		return nil
	}

	seed, runs, rounds, parallel := cfg.seed, cfg.runs, cfg.rounds, cfg.parallel

	// runExperiment runs one experiment under the right observer. With
	// -trace-out, the experiment records into its own fresh ring, written
	// as TRACE_<name>.jsonl under the directory when it finishes — one
	// self-contained file per experiment for witag-trace to analyze. With
	// -timeline, the experiment gets its own fresh timeline attached to
	// the campaign (every runner under it then samples windowed deltas),
	// written as TL_<name>.jsonl beside the BENCH artifacts.
	runExperiment := func(name string, fn func(name string, runner sim.Runner) error) error {
		camp.Logger.Info("experiment started", slog.String("experiment", name))
		o := camp.Observer
		var rec *obs.Recorder
		if cfg.traceOut != "" {
			rec = obs.NewRecorder(rf.TraceCap)
			o = obs.NewObserver(reg, rec)
		}
		var tl *obs.Timeline
		if cfg.timeline {
			tl = obs.NewTimeline(reg, obs.TimelineConfig{WindowTrials: rf.TimelineWindow})
			camp.SetTimeline(tl)
			defer camp.SetTimeline(nil)
		}
		prev := experiments.SetObserver(o)
		err := profiled(cfg.profileDir, name, func() error {
			return fn(name, sim.Runner{Workers: parallel, Obs: o, Campaign: camp})
		})
		experiments.SetObserver(prev)
		if err != nil {
			return err
		}
		if tl != nil {
			tl.Flush()
			if err := cliflags.WriteTimeline(filepath.Join(cfg.jsonDir, "TL_"+name+".jsonl"), tl); err != nil {
				return err
			}
			rf.Artifacts = append(rf.Artifacts, "TL_"+name+".jsonl")
		}
		if rec == nil {
			return nil
		}
		path := filepath.Join(cfg.traceOut, "TRACE_"+name+".jsonl")
		rf.Artifacts = append(rf.Artifacts, path)
		return cliflags.WriteTrace(path, rec)
	}

	// The six regular experiments print their table, assert the paper's
	// shape and emit the result itself as the series.
	shaped := func(fn func(sim.Runner) (result, error)) func(string, sim.Runner) error {
		return func(name string, runner sim.Runner) error {
			res, err := fn(runner)
			if err != nil {
				return err
			}
			fmt.Println(res.Render())
			if err := res.ShapeChecks(); err != nil {
				return err
			}
			return emit(name, res)
		}
	}
	for _, e := range []struct {
		name string
		run  func(name string, runner sim.Runner) error
	}{
		{"fig3", shaped(func(sim.Runner) (result, error) { return experiments.Figure3Ctx(ctx, seed, parallel) })},
		{"fig5", shaped(func(sim.Runner) (result, error) {
			return experiments.Figure5Ctx(ctx, experiments.Figure5Config{Seed: seed, Runs: runs, Round: rounds, Workers: parallel})
		})},
		{"fig6", func(name string, _ sim.Runner) error {
			fcfg := experiments.DefaultFigure6Config()
			fcfg.Seed = seed
			fcfg.Workers = parallel
			fcfg.Round = max(rounds/2, 10)
			a, err := experiments.Figure6Ctx(ctx, experiments.LocationA, fcfg)
			if err != nil {
				return err
			}
			fcfg.Seed = seed + 1
			b, err := experiments.Figure6Ctx(ctx, experiments.LocationB, fcfg)
			if err != nil {
				return err
			}
			fmt.Println(a.Render())
			fmt.Println(b.Render())
			if err := experiments.CheckFigure6Shape(a, b); err != nil {
				return err
			}
			return emit(name, map[string]experiments.Figure6Series{"A": a.Series(), "B": b.Series()})
		}},
		{"s41", shaped(func(sim.Runner) (result, error) { return experiments.Section41SweepCtx(ctx, parallel) })},
		{"compare", shaped(func(sim.Runner) (result, error) { return experiments.PriorSystemComparison(seed) })},
		{"power", shaped(func(runner sim.Runner) (result, error) { return experiments.Section7PowerCtx(ctx, runner, seed) })},
		{"ablations", func(name string, runner sim.Runner) error {
			ablationSeries := map[string]*experiments.AblationResult{}
			for _, a := range []struct {
				name string
				run  func(context.Context, sim.Runner, int64, int) (*experiments.AblationResult, error)
				n    int // rounds per point (FEC framing: frames)
			}{
				{"switch mode", experiments.AblationSwitchModeCtx, rounds / 2},
				{"trigger count", experiments.AblationTriggerCountCtx, rounds / 4},
				{"FEC framing", experiments.AblationFECCtx, 6},
				{"A-MPDU size", experiments.AblationAMPDUSizeCtx, rounds / 4},
				{"robust rate", experiments.AblationRobustRateCtx, rounds / 4},
				{"encryption", experiments.AblationEncryptionCtx, rounds / 4},
			} {
				res, err := a.run(ctx, runner, seed, a.n)
				if err != nil {
					return fmt.Errorf("%s: %w", a.name, err)
				}
				fmt.Println(res.Render())
				ablationSeries[a.name] = res
			}
			return emit(name, ablationSeries)
		}},
		{"robustness", shaped(func(sim.Runner) (result, error) {
			rcfg := experiments.DefaultRobustnessConfig()
			rcfg.Seed = seed
			rcfg.Workers = parallel
			rcfg.BaseProfile = cfg.faultProf
			rcfg.Transfers = cfg.transfers
			return experiments.RobustnessCtx(ctx, rcfg)
		})},
		{"coding", func(name string, _ sim.Runner) error {
			ccfg := experiments.DefaultAdaptiveCodingConfig()
			ccfg.Seed = seed
			ccfg.Workers = parallel
			full := cfg.transfer == "all" && cfg.trafficSel == "all"
			if cfg.transfer != "all" {
				ccfg.Schemes = []string{cfg.transfer}
			}
			if cfg.trafficSel != "all" {
				// Narrow the grid to the profiles composed with the
				// selected ambient-traffic preset.
				var kept []experiments.CodingProfile
				for _, p := range ccfg.Profiles {
					if p.Traffic == cfg.trafficSel {
						kept = append(kept, p)
					}
				}
				if len(kept) == 0 {
					return fmt.Errorf("no coding profile uses traffic %q", cfg.trafficSel)
				}
				ccfg.Profiles = kept
			}
			res, err := experiments.AdaptiveCodingCtx(ctx, ccfg)
			if err != nil {
				return err
			}
			fmt.Println(res.Render())
			// The shape claims compare all three schemes across the full
			// grid; a -transfer/-traffic narrowed run is exploration, not
			// a gate.
			if full {
				if err := res.ShapeChecks(); err != nil {
					return err
				}
			}
			return emit(name, res)
		}},
	} {
		if cfg.experiment != "all" && cfg.experiment != e.name {
			continue
		}
		if err := runExperiment(e.name, e.run); err != nil {
			return err
		}
	}
	return nil
}
