package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"witag/internal/channel"
	"witag/internal/core"
	"witag/internal/dot11"
	"witag/internal/experiments"
	"witag/internal/phy"
	"witag/internal/sim"
	"witag/internal/stats"
)

// outcome is what one execution of a workload produced: a digest of its
// science series, the number of simulated rounds behind it, for the
// coding sweep the per-cell round and delivery counts the traced run must
// reproduce, the verdict of the science check on the output, and a
// science note that is reported but not counted as a failure.
type outcome struct {
	digest   string
	rounds   int
	counts   string
	checkErr error
	note     string
}

// workload is one named set of inputs. run executes it untraced through
// the program's public entry point and checks the science (an error means
// the execution itself failed; a failed check is the outcome's checkErr);
// traced executes the same inputs with spans and probes into p (p may be
// nil, which records nothing). warm is the smallest version of run that
// still calls every layer run calls, so it loads the same code and builds
// any table a layer makes on first use, but simulates next to nothing: it
// is the work of set-up, not a measurement. It takes no seed, so set-up
// does the same work whatever the seed. shipped, if set, is a science
// check that holds at the program's shipped set-up but not at every seed;
// a run makes it once, untimed, and its failure is a failed operation.
type workload struct {
	name    string
	workers int
	run     func(ctx context.Context, seed int64, workers int) (outcome, error)
	traced  func(ctx context.Context, seed int64, workers int, p *pass) (outcome, error)
	warm    func(ctx context.Context) error
	shipped func(ctx context.Context) error
}

// Sizes per repetition: small enough that a run of the benchmark holds
// several repetitions. Figure 5 and the coding sweep are large enough
// that their shape checks hold on every seed tried (README.md); Figure 6
// keeps witag-bench's 60 runs per location.
const (
	fig5Runs, fig5Rounds = 4, 250
	fig6Runs, fig6Rounds = 60, 150
	codingTransfers      = 20
)

var workloads = []workload{
	{name: "los_fig5", workers: 1, run: runFig5, traced: tracedFig5, warm: warmFig5},
	{name: "nlos_fig6", workers: 2, run: runFig6, traced: tracedFig6, warm: warmFig6, shipped: shippedFig6},
	{name: "coding_mix", workers: 2, run: runCoding, traced: tracedCoding, warm: warmCoding},
	{name: "bittrue_phy", workers: 1, run: runPHY, traced: tracedPHY, warm: warmPHY},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// digest hashes the JSON form of a science result.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// --- los_fig5: Figure 5, line of sight, one worker. ---

var fig5Distances = []float64{1, 2, 3, 4, 5, 6, 7}

func fig5Config(seed int64, workers int) experiments.Figure5Config {
	return experiments.Figure5Config{Seed: seed, Runs: fig5Runs, Round: fig5Rounds, Workers: workers}
}

func runFig5(ctx context.Context, seed int64, workers int) (outcome, error) {
	res, err := experiments.Figure5Ctx(ctx, fig5Config(seed, workers))
	if err != nil {
		return outcome{}, err
	}
	return fig5Outcome(res)
}

func fig5Outcome(res *experiments.Figure5Result) (outcome, error) {
	d, err := digest(res)
	return outcome{digest: d, rounds: len(fig5Distances) * fig5Runs * fig5Rounds, checkErr: res.ShapeChecks()}, err
}

// warmSeed seeds every workload's warm-up.
const warmSeed = 1

func warmFig5(ctx context.Context) error {
	_, err := experiments.Figure5Ctx(ctx, experiments.Figure5Config{Seed: warmSeed, Runs: 1, Round: 1, Workers: 1})
	return err
}

// tracedFig5 rebuilds Figure5Ctx's trials from the exported testbed and
// seed labels, runs them on a sim.Runner with spans, and aggregates them
// the way Figure5Ctx does, so its digest must equal the untraced one.
func tracedFig5(ctx context.Context, seed int64, workers int, p *pass) (outcome, error) {
	cfg := fig5Config(seed, workers)
	res := &experiments.Figure5Result{Runs: cfg.Runs}
	sys, _, err := experiments.LoSTestbed(fig5Distances[0], stats.SubSeed(cfg.Seed, "fig5", "rate"))
	if err != nil {
		return outcome{}, err
	}
	raw, err := sys.TagRateBps()
	if err != nil {
		return outcome{}, err
	}
	res.RawRateKbps = raw / 1000

	n := len(fig5Distances) * cfg.Runs
	runStats, err := sim.Map(ctx, sim.Runner{Workers: workers}, n, func(ctx context.Context, i int) (sim.RunStats, error) {
		d := fig5Distances[i/cfg.Runs]
		labels := []string{"fig5", fmt.Sprintf("d=%g", d), fmt.Sprintf("run=%d", i%cfg.Runs)}
		return tracedTrial(ctx, p, func() (*core.System, *channel.Environment, error) {
			return experiments.LoSTestbed(d, stats.SubSeed(cfg.Seed, labels...))
		}, cfg.Round, stats.SubSeed(cfg.Seed, append(labels, "data")...))
	})
	if err != nil {
		return outcome{}, err
	}
	for di, d := range fig5Distances {
		var bers []float64
		var det, rate float64
		for run := 0; run < cfg.Runs; run++ {
			rs := runStats[di*cfg.Runs+run]
			bers = append(bers, rs.BER)
			det += rs.DetectionRate
			if rs.Airtime > 0 {
				rate += float64(rs.Bits-rs.Errors) / rs.Airtime.Seconds() / 1000
			}
		}
		res.Points = append(res.Points, experiments.Figure5Point{
			DistanceM:      d,
			BER:            stats.Mean(bers),
			BERStd:         stats.StdDev(bers),
			ThroughputKbps: rate / float64(cfg.Runs),
			DetectionRate:  det / float64(cfg.Runs),
		})
	}
	return fig5Outcome(res)
}

// tracedTrial is sim.Trial.Run with spans: the build, then the rounds.
func tracedTrial(ctx context.Context, p *pass, build func() (*core.System, *channel.Environment, error), rounds int, dataSeed int64) (sim.RunStats, error) {
	rec := p.recorder()
	trial := rec.begin(lTrial, -1)
	sp := rec.begin(lBuild, trial)
	sys, env, err := build()
	rec.end(sp, 1)
	if err != nil {
		return sim.RunStats{}, err
	}
	rs, err := tracedRounds(ctx, rec, trial, sys, env, rounds, dataSeed, streams{})
	rec.end(trial, 1)
	return rs, err
}

// --- nlos_fig6: Figure 6, locations A then B, two workers. ---

var fig6Locations = []experiments.NLoSLocation{experiments.LocationA, experiments.LocationB}

// fig6Config is location i's campaign. As in witag-bench, location B runs
// on the seed after location A's.
func fig6Config(seed int64, i, workers int) experiments.Figure6Config {
	return experiments.Figure6Config{Seed: seed + int64(i), Runs: fig6Runs, Round: fig6Rounds, Workers: workers}
}

func runFig6(ctx context.Context, seed int64, workers int) (outcome, error) {
	var res []*experiments.Figure6Result
	for i, loc := range fig6Locations {
		r, err := experiments.Figure6Ctx(ctx, loc, fig6Config(seed, i, workers))
		if err != nil {
			return outcome{}, err
		}
		res = append(res, r)
	}
	return fig6Outcome(res)
}

// fig6Outcome checks that each location's series is well formed on every
// seed. CheckFigure6Shape is only a note here: at witag-bench's own
// Figure 6 set-up it fails on about two seeds in five (README.md), so it
// is counted at the shipped set-up instead (shippedFig6).
func fig6Outcome(res []*experiments.Figure6Result) (outcome, error) {
	d, err := digest([]experiments.Figure6Series{res[0].Series(), res[1].Series()})
	o := outcome{digest: d, rounds: len(fig6Locations) * fig6Runs * fig6Rounds}
	for i, r := range res {
		if o.checkErr = checkFig6Series(r, fig6Locations[i]); o.checkErr != nil {
			break
		}
	}
	if shape := experiments.CheckFigure6Shape(res[0], res[1]); shape != nil {
		o.note = fmt.Sprintf("CheckFigure6Shape fails at this seed, a known model defect not counted here (perfbench/README.md): %v", shape)
	}
	return o, err
}

// checkFig6Series checks one location's campaign: its location, one BER
// in [0, 1] per run, and p50 ≤ p90 within the runs' range.
func checkFig6Series(r *experiments.Figure6Result, loc experiments.NLoSLocation) error {
	if r.Location != loc || len(r.RunBERs) != fig6Runs {
		return fmt.Errorf("location %c with %d runs, want %c with %d", r.Location, len(r.RunBERs), loc, fig6Runs)
	}
	lo, hi := 1.0, 0.0
	for _, ber := range r.RunBERs {
		if !(ber >= 0 && ber <= 1) {
			return fmt.Errorf("location %c: run BER %v outside [0, 1]", loc, ber)
		}
		lo, hi = min(lo, ber), max(hi, ber)
	}
	if !(lo <= r.P50 && r.P50 <= r.P90 && r.P90 <= hi) {
		return fmt.Errorf("location %c: p50 %v and p90 %v not ordered within the run BERs [%v, %v]", loc, r.P50, r.P90, lo, hi)
	}
	return nil
}

// witag-bench's defaults: -seed 42, and Figure 6 at half of -rounds 700.
const shippedSeed, shippedFig6Rounds = 42, 350

// shippedFig6 runs Figure 6 as witag-bench does at its defaults (location
// A on seed 42, B on 43, 60 runs × 350 rounds) and applies
// CheckFigure6Shape, which the program asserts there.
func shippedFig6(ctx context.Context) error {
	var res []*experiments.Figure6Result
	for i, loc := range fig6Locations {
		cfg := experiments.DefaultFigure6Config()
		cfg.Seed, cfg.Round, cfg.Workers = shippedSeed+int64(i), shippedFig6Rounds, 2
		r, err := experiments.Figure6Ctx(ctx, loc, cfg)
		if err != nil {
			return err
		}
		res = append(res, r)
	}
	return experiments.CheckFigure6Shape(res[0], res[1])
}

func warmFig6(ctx context.Context) error {
	for i, loc := range fig6Locations {
		cfg := experiments.Figure6Config{Seed: warmSeed + int64(i), Runs: 2, Round: 1, Workers: 1}
		if _, err := experiments.Figure6Ctx(ctx, loc, cfg); err != nil {
			return err
		}
	}
	return nil
}

func tracedFig6(ctx context.Context, seed int64, workers int, p *pass) (outcome, error) {
	var res []*experiments.Figure6Result
	for i, loc := range fig6Locations {
		cfg := fig6Config(seed, i, workers)
		locLabel := fmt.Sprintf("loc=%c", loc)
		runStats, err := sim.Map(ctx, sim.Runner{Workers: workers}, cfg.Runs, func(ctx context.Context, run int) (sim.RunStats, error) {
			runLabel := fmt.Sprintf("run=%d", run)
			return tracedTrial(ctx, p, func() (*core.System, *channel.Environment, error) {
				return nlosDeployment(loc, cfg.Seed, locLabel, runLabel)
			}, cfg.Round, stats.SubSeed(cfg.Seed, "fig6", locLabel, runLabel, "data"))
		})
		if err != nil {
			return outcome{}, err
		}
		r := &experiments.Figure6Result{Location: loc, RunBERs: make([]float64, len(runStats))}
		for i, rs := range runStats {
			r.RunBERs[i] = rs.BER
		}
		r.CDF = stats.NewCDF(r.RunBERs)
		if r.P50, err = r.CDF.Quantile(0.5); err != nil {
			return outcome{}, err
		}
		if r.P90, err = r.CDF.Quantile(0.9); err != nil {
			return outcome{}, err
		}
		res = append(res, r)
	}
	return fig6Outcome(res)
}

// nlosDeployment builds one Figure 6 run's deployment from the exported
// testbed, repeating the experiment's per-run set-up: ambient loss, the
// robust-rate choice and the wall drift, each from its labeled seed.
func nlosDeployment(loc experiments.NLoSLocation, rootSeed int64, locLabel, runLabel string) (*core.System, *channel.Environment, error) {
	sys, env, err := experiments.NLoSTestbed(loc, stats.SubSeed(rootSeed, "fig6", locLabel, runLabel))
	if err != nil {
		return nil, nil, err
	}
	ambRng := stats.NewRNG(stats.SubSeed(rootSeed, "fig6", locLabel, runLabel, "ambient"))
	sys.AmbientLossProb = stats.Exponential(ambRng, 0.005)
	snr, err := env.SNR(sys.ClientPos, sys.APPos)
	if err != nil {
		return nil, nil, err
	}
	if mcs, err := phy.RobustMCS(snr/1.6, 400, 0.9995); err == nil {
		sys.Spec.MCS = mcs
	} else if sys.Spec.MCS, err = dot11.HTMCS(0); err != nil {
		return nil, nil, err
	}
	if err := sys.Reshape(); err != nil {
		return nil, nil, err
	}
	if len(env.Walls) > 0 {
		jitter := stats.Gaussian(ambRng, 0, 1.6)
		jitter = min(max(jitter, -2.2), 2.2)
		env.Walls[0].AttenuationDb += jitter
	}
	return sys, env, nil
}
