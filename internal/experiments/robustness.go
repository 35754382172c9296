package experiments

import (
	"bytes"
	"context"
	"fmt"
	"strings"

	"witag/internal/fault"
	"witag/internal/link"
	"witag/internal/obs"
	"witag/internal/sim"
	"witag/internal/stats"
)

// Robustness: graceful degradation of a reliable transfer under injected
// burst interference. The paper's §4.1 defers error handling to future
// work; this harness measures the transfer layer built for it. A sweep
// raises the Gilbert–Elliott bad-state subframe loss and, at each point,
// moves a fixed payload tag→client twice over the *same* labeled fault
// world: once with a single-shot, fixed-coding baseline (no ARQ — how the
// seed reproduction behaved), once with selective-repeat ARQ plus the
// AIMD coding controller. Reported per point: delivery probability for
// both modes, and the ARQ mode's goodput, mean retries, rounds and final
// coding level.

// RobustnessConfig parameterises the sweep.
type RobustnessConfig struct {
	Seed         int64
	PayloadBytes int // transfer size (default 64)
	Transfers    int // independent transfers per point per mode
	Workers      int // concurrent trial workers; <= 0 means runtime.NumCPU()
	// BaseProfile names the fault.Named preset supplying burst dwell
	// times and control-plane fault rates; the sweep overrides its
	// bad-state loss.
	BaseProfile string
	// LossBadPoints are the swept Gilbert–Elliott bad-state subframe
	// loss probabilities.
	LossBadPoints []float64
}

// DefaultRobustnessConfig is the witag-bench scale.
func DefaultRobustnessConfig() RobustnessConfig {
	return RobustnessConfig{
		Seed:          42,
		PayloadBytes:  64,
		Transfers:     100,
		BaseProfile:   "bursty",
		LossBadPoints: []float64{0, 0.3, 0.6, 0.8, 0.95},
	}
}

// RobustnessPoint is one sweep point's aggregate.
type RobustnessPoint struct {
	LossBad float64 // bad-state subframe loss probability
	AvgLoss float64 // steady-state mean subframe loss at this point

	BaselineDelivery float64 // fraction of no-ARQ transfers delivered
	ARQDelivery      float64 // fraction of ARQ transfers delivered

	// ARQ-mode means (over all its transfers unless noted).
	GoodputKbps float64 // payload bits / airtime, delivered transfers
	MeanRetries float64
	MeanRounds  float64
	MeanLevel   float64 // final coding rung (0 = lightest)

	// Mean injected fault counts per ARQ-mode transfer, by event type, so
	// injected loss can be reconciled against the observed delivery and
	// retry numbers above (the injector's own tally, not an estimate).
	InjSubframesLost float64 `json:"injSubframesLost"`
	InjTriggerMisses float64 `json:"injTriggerMisses"`
	InjBALosses      float64 `json:"injBALosses"`
	InjBrownouts     float64 `json:"injBrownouts"`
}

// RobustnessResult is the whole sweep.
type RobustnessResult struct {
	Profile      string
	PayloadBytes int
	Transfers    int
	Points       []RobustnessPoint
}

// robustnessTrial is one transfer's outcome, stored by index.
type robustnessTrial struct {
	delivered              bool
	retries, rounds, level int
	goodput                float64
	// Injected fault tallies from the trial's own injector.
	injSub, injTrig, injBA, injBrown int
}

// Robustness runs the sweep at default scale.
func Robustness(cfg RobustnessConfig) (*RobustnessResult, error) {
	return RobustnessCtx(context.Background(), cfg)
}

// RobustnessCtx is Robustness with cancellation.
func RobustnessCtx(ctx context.Context, cfg RobustnessConfig) (*RobustnessResult, error) {
	if cfg.PayloadBytes < 1 || cfg.PayloadBytes > link.MaxTransfer {
		return nil, fmt.Errorf("experiments: payload %d bytes outside [1,%d]", cfg.PayloadBytes, link.MaxTransfer)
	}
	if cfg.Transfers < 1 || len(cfg.LossBadPoints) == 0 {
		return nil, fmt.Errorf("experiments: need ≥1 transfer and ≥1 sweep point")
	}
	base, err := fault.Named(cfg.BaseProfile)
	if err != nil {
		return nil, err
	}
	const modes = 2 // 0: no-ARQ baseline, 1: ARQ + adaptive coding
	perPoint := modes * cfg.Transfers
	n := len(cfg.LossBadPoints) * perPoint

	trials, err := sim.Map(ctx, simRunner(cfg.Workers), n,
		func(ctx context.Context, i int) (robustnessTrial, error) {
			pi := i / perPoint
			mode := i % perPoint / cfg.Transfers
			tr := i % cfg.Transfers
			return robustnessTransfer(ctx, cfg, base, cfg.LossBadPoints[pi], mode, i, tr, currentObserver())
		})
	if err != nil {
		return nil, err
	}

	res := &RobustnessResult{Profile: cfg.BaseProfile, PayloadBytes: cfg.PayloadBytes, Transfers: cfg.Transfers}
	for pi, lb := range cfg.LossBadPoints {
		prof := base
		prof.LossBad = lb
		pt := RobustnessPoint{LossBad: lb, AvgLoss: prof.AvgLoss()}
		var goodput float64
		delivered := 0
		for tr := 0; tr < cfg.Transfers; tr++ {
			if trials[pi*perPoint+tr].delivered {
				pt.BaselineDelivery++
			}
			a := trials[pi*perPoint+cfg.Transfers+tr]
			if a.delivered {
				delivered++
				goodput += a.goodput
			}
			pt.MeanRetries += float64(a.retries)
			pt.MeanRounds += float64(a.rounds)
			pt.MeanLevel += float64(a.level)
			pt.InjSubframesLost += float64(a.injSub)
			pt.InjTriggerMisses += float64(a.injTrig)
			pt.InjBALosses += float64(a.injBA)
			pt.InjBrownouts += float64(a.injBrown)
		}
		pt.BaselineDelivery /= float64(cfg.Transfers)
		pt.ARQDelivery = float64(delivered) / float64(cfg.Transfers)
		if delivered > 0 {
			pt.GoodputKbps = goodput / float64(delivered) / 1000
		}
		pt.MeanRetries /= float64(cfg.Transfers)
		pt.MeanRounds /= float64(cfg.Transfers)
		pt.MeanLevel /= float64(cfg.Transfers)
		pt.InjSubframesLost /= float64(cfg.Transfers)
		pt.InjTriggerMisses /= float64(cfg.Transfers)
		pt.InjBALosses /= float64(cfg.Transfers)
		pt.InjBrownouts /= float64(cfg.Transfers)
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// robustnessModeName names a transfer mode in seed-label paths.
func robustnessModeName(mode int) string {
	if mode == 0 {
		return "base"
	}
	return "arq"
}

// robustnessTransfer runs exactly one transfer of the sweep: the paired
// world identified by (lossBad, tr) under the given mode (0: single-shot
// no-ARQ baseline, 1: selective-repeat ARQ + adaptive coding). Extracted
// from the campaign closure so forensic replay can re-run one flagged
// transfer with a fresh observer. Both modes rebuild the same labeled
// world — environment, fault stream and payload — so the comparison
// isolates the transfer policy (the paired-trial pattern of DESIGN.md
// §8); the mode deliberately never enters the seed tree, only the trace
// label path ("robust/lb=…/tr=…/mode=…").
func robustnessTransfer(ctx context.Context, cfg RobustnessConfig, base fault.Profile, lossBad float64, mode, traceID, tr int, o *obs.Observer) (robustnessTrial, error) {
	prof := base
	prof.LossBad = lossBad
	world := []string{"robust", fmt.Sprintf("lb=%g", prof.LossBad), fmt.Sprintf("tr=%d", tr)}
	sys, env, label, err := transferTestbed(cfg.Seed, world, "mode="+robustnessModeName(mode), &prof, traceID, o)
	if err != nil {
		return robustnessTrial{}, err
	}
	payload := stats.RandomBytes(stats.NewRNG(label("payload")), cfg.PayloadBytes)

	pol := link.DefaultPolicy()
	var cc *link.CodingController
	if mode == 0 {
		pol.RetryBudget = 0
		cc = link.NewFixedController(link.DefaultLadder()[1])
	} else {
		cc, err = link.NewCodingController(0)
		if err != nil {
			return robustnessTrial{}, err
		}
	}
	st, err := link.NewTransferer(sys, env, pol, cc, label("arq")).Send(ctx, payload)
	if err != nil {
		return robustnessTrial{}, err
	}
	if st.Delivered && !bytes.Equal(st.Received, payload) {
		return robustnessTrial{}, fmt.Errorf("experiments: ARQ delivered a corrupted payload at lb=%g tr=%d", prof.LossBad, tr)
	}
	return robustnessTrial{
		delivered: st.Delivered,
		retries:   st.Retries,
		rounds:    st.Rounds,
		level:     st.FinalLevel,
		goodput:   st.GoodputBps(),
		injSub:    sys.Faults.SubframesLost,
		injTrig:   sys.Faults.TriggerMisses,
		injBA:     sys.Faults.BALosses,
		injBrown:  sys.Faults.Brownouts,
	}, nil
}

// Render prints the sweep table.
func (r *RobustnessResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Robustness: %d-byte transfers under %q burst faults (%d transfers/point)\n",
		r.PayloadBytes, r.Profile, r.Transfers)
	fmt.Fprintf(&b, "%-9s %-9s %-10s %-10s %-14s %-9s %-9s %-7s %s\n",
		"LossBad", "AvgLoss", "no-ARQ", "ARQ", "Goodput Kbps", "Retries", "Rounds", "Level", "Injected sub/trig/ba/brown")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-9.2f %-9.3f %-10.2f %-10.2f %-14.2f %-9.1f %-9.1f %-7.1f %.1f/%.2f/%.2f/%.2f\n",
			p.LossBad, p.AvgLoss, p.BaselineDelivery, p.ARQDelivery,
			p.GoodputKbps, p.MeanRetries, p.MeanRounds, p.MeanLevel,
			p.InjSubframesLost, p.InjTriggerMisses, p.InjBALosses, p.InjBrownouts)
	}
	b.WriteString("no-ARQ/ARQ columns are delivery probability; goodput/retries/rounds/level are ARQ means\n")
	b.WriteString("injected column is the injector's own per-event-type tally, mean per ARQ transfer\n")
	return b.String()
}

// ShapeChecks asserts the robustness claims CI enforces: ARQ never hurts
// delivery, degradation is graceful (goodput falls, retries rise, the
// controller escalates), and there is a burst intensity where ARQ holds
// ≥99% delivery while the no-ARQ baseline drops under 50%.
func (r *RobustnessResult) ShapeChecks() error {
	if len(r.Points) < 2 {
		return fmt.Errorf("experiments: robustness sweep needs ≥2 points, got %d", len(r.Points))
	}
	for _, p := range r.Points {
		if p.ARQDelivery+0.05 < p.BaselineDelivery {
			return fmt.Errorf("experiments: ARQ delivery %v below baseline %v at LossBad %v", p.ARQDelivery, p.BaselineDelivery, p.LossBad)
		}
	}
	crossover := false
	for _, p := range r.Points {
		if p.ARQDelivery >= 0.99 && p.BaselineDelivery < 0.5 {
			crossover = true
			break
		}
	}
	if !crossover {
		return fmt.Errorf("experiments: no sweep point with ARQ ≥0.99 delivery while baseline <0.5")
	}
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	if last.GoodputKbps <= 0 {
		return fmt.Errorf("experiments: ARQ goodput collapsed to zero at LossBad %v", last.LossBad)
	}
	if last.GoodputKbps >= first.GoodputKbps {
		return fmt.Errorf("experiments: goodput did not degrade with burst loss (%v → %v Kbps)", first.GoodputKbps, last.GoodputKbps)
	}
	if last.MeanRetries <= first.MeanRetries {
		return fmt.Errorf("experiments: retries did not rise with burst loss (%v → %v)", first.MeanRetries, last.MeanRetries)
	}
	if last.MeanLevel <= first.MeanLevel {
		return fmt.Errorf("experiments: coding controller never escalated (%v → %v)", first.MeanLevel, last.MeanLevel)
	}
	return nil
}
