package main

import (
	"context"
	"fmt"
	"time"
)

// layerMetric is one per-layer metric: its unit and how it is computed
// from the traced passes (t), the allocation pass (a) and the untraced
// repetitions run alongside them (u).
type layerMetric struct {
	name, unit string
	value      func(t, a *totals, u *untraced) float64
}

// untraced is what the traced run measures on its untraced repetitions,
// plus the wall times of its traced passes.
type untraced struct {
	walls, roundsPerS, cpuPerKround, workerUtil []float64
	gcCycles, gcPauseMs, tracedWalls            []float64
}

// perCall is layer l's mean time per call, in nanoseconds ÷ div.
func perCall(l layer, div float64) func(t, a *totals, u *untraced) float64 {
	return func(t, _ *totals, _ *untraced) float64 { return t.perCall(&t.ns, l) / div }
}

func perRound(l layer) func(t, a *totals, u *untraced) float64 {
	return func(t, _ *totals, _ *untraced) float64 { return ratio(t.calls[l], t.calls[lRound]) }
}

func allocPerCall(l layer, bytes bool) func(t, a *totals, u *untraced) float64 {
	return func(_, a *totals, _ *untraced) float64 {
		if bytes {
			return a.perCall(&a.bytes, l)
		}
		return a.perCall(&a.allocs, l)
	}
}

func countRatio(num, den counter) func(t, a *totals, u *untraced) float64 {
	return func(t, _ *totals, _ *untraced) float64 { return ratio(t.counts[num], t.counts[den]) }
}

// probeNsPerRound is the time per round the round probes spent re-doing
// QueryRound's internal work.
func probeNsPerRound(t *totals) float64 {
	var ns float64
	for _, l := range roundProbes {
		ns += t.ns[l]
	}
	return ratio(ns, t.calls[lRound])
}

// layerMetrics lists every per-layer metric in report order. Layers a
// workload never calls report 0.
var layerMetrics = []layerMetric{
	{"experiments.build_us", "us", perCall(lBuild, 1e3)},
	{"sim.trials", "count", func(t, _ *totals, _ *untraced) float64 { return float64(t.spans[lTrial]) / float64(t.passes) }},
	{"sim.trial_p50_ms", "ms", func(t, _ *totals, _ *untraced) float64 { return quantile(t.trialMs, 0.5) }},
	{"sim.trial_tail_ms", "ms", func(t, _ *totals, _ *untraced) float64 {
		return quantile(t.trialMs, tailQuantile(len(t.trialMs)))
	}},
	{"sim.idle_share", "ratio", func(t, _ *totals, _ *untraced) float64 { return 1 - ratio(t.busyNs, t.capacityNs) }},
	{"channel.advance_ns", "ns", perCall(lAdvance, 1)},
	{"channel.eval_ns", "ns", perCall(lEval, 1)},
	{"channel.eval_calls_per_round", "count", perRound(lEval)},
	{"core.round_ns", "ns", perCall(lRound, 1)},
	{"core.self_ns", "ns", func(t, _ *totals, _ *untraced) float64 {
		return t.perCall(&t.ns, lRound) - probeNsPerRound(t)
	}},
	{"core.round_allocs", "count", allocPerCall(lRound, false)},
	{"core.round_alloc_bytes", "B", allocPerCall(lRound, true)},
	{"core.codec_encode_ns", "ns", perCall(lCodecEncode, 1)},
	{"core.codec_decode_ns", "ns", perCall(lCodecDecode, 1)},
	{"phy.link_model_ns", "ns", perCall(lLinkModel, 1)},
	{"phy.link_model_calls_per_round", "count", perRound(lLinkModel)},
	{"phy.distortion_ns", "ns", perCall(lDistortion, 1)},
	{"phy.transmit_ns", "ns", perCall(lTransmit, 1)},
	{"phy.apply_channel_ns", "ns", perCall(lApplyChannel, 1)},
	{"phy.estimate_csi_ns", "ns", perCall(lEstimateCSI, 1)},
	{"phy.receive_ns", "ns", perCall(lReceive, 1)},
	{"phy.receive_allocs", "count", allocPerCall(lReceive, false)},
	{"phy.viterbi_ns", "ns", perCall(lViterbi, 1)},
	{"phy.frame_ok_ratio", "ratio", func(t, _ *totals, _ *untraced) float64 { return ratio(t.counts[cFramesOK], t.calls[lReceive]) }},
	{"dot11.ampdu_build_ns", "ns", perCall(lAMPDU, 1)},
	{"dot11.psdu_bytes", "B", func(t, _ *totals, _ *untraced) float64 { return ratio(t.counts[cPSDUBytes], t.calls[lAMPDU]) }},
	{"dot11.ampdu_allocs", "count", allocPerCall(lAMPDU, false)},
	{"mac.scoreboard_ns", "ns", perCall(lScoreboard, 1)},
	{"tag.detect_ns", "ns", perCall(lDetect, 1)},
	{"tag.coverage_ns", "ns", perCall(lCoverage, 1)},
	{"fault.hook_ns", "ns", perCall(lFault, 1)},
	{"fault.hook_calls_per_round", "count", perRound(lFault)},
	{"traffic.mask_ns", "ns", perCall(lTraffic, 1)},
	{"link.send_ms", "ms", perCall(lLinkSend, 1e6)},
	{"link.rounds_per_transfer", "count", func(t, _ *totals, _ *untraced) float64 { return ratio(t.counts[cLinkRounds], t.calls[lLinkSend]) }},
	{"link.frame_ok_ratio", "ratio", countRatio(cLinkFramesOK, cLinkFramesSent)},
	{"coding.fountain_send_ms", "ms", perCall(lFountainSend, 1e6)},
	{"coding.rs_send_ms", "ms", perCall(lRSSend, 1e6)},
	{"coding.rs_parity_ns", "ns", perCall(lRSParity, 1)},
	{"coding.rs_reconstruct_ns", "ns", perCall(lRSReconstruct, 1)},
	{"coding.fountain_add_ns", "ns", perCall(lFountainAdd, 1)},
	{"coding.decode_ok_ratio", "ratio", countRatio(cDecodeOK, cDecodeAttempts)},
	{"untraced.wall_s", "s", func(_, _ *totals, u *untraced) float64 { return median(u.walls) }},
	{"untraced.rounds_per_s", "1/s", func(_, _ *totals, u *untraced) float64 { return median(u.roundsPerS) }},
	{"untraced.cpu_s_per_kround", "s", func(_, _ *totals, u *untraced) float64 { return median(u.cpuPerKround) }},
	{"untraced.worker_util", "ratio", func(_, _ *totals, u *untraced) float64 { return median(u.workerUtil) }},
	{"runtime.gc_cycles", "count", func(_, _ *totals, u *untraced) float64 { return median(u.gcCycles) }},
	{"runtime.gc_pause_ms", "ms", func(_, _ *totals, u *untraced) float64 { return median(u.gcPauseMs) }},
	{"trace.overhead_share", "ratio", func(_, _ *totals, u *untraced) float64 {
		return ratio(median(u.tracedWalls), median(u.walls)) - 1
	}},
	{"trace.coverage", "ratio", func(t, _ *totals, _ *untraced) float64 {
		return ratio(probeNsPerRound(t), t.perCall(&t.ns, lRound))
	}},
}

// tracedRun measures the per-layer metrics. It first runs the workload
// untraced as the reference, then once traced on one worker with heap
// accounting around the allocation-measured spans (one worker, so the
// process-wide counters see only that span's goroutine), then alternates
// traced passes at the workload's worker count with untraced repetitions
// until the budget is spent. Every traced pass must reproduce the
// reference outcome.
func tracedRun(ctx context.Context, w workload, seed int64, budget time.Duration) (*result, error) {
	if err := w.warm(ctx); err != nil {
		return nil, err
	}
	start := time.Now()
	var (
		t   tally
		u   untraced
		ref *outcome
	)
	untracedRep := func() {
		r, out, err := timedRep(ctx, w, seed, w.workers)
		if err != nil {
			t.note("untraced repetition", err)
			return
		}
		if ref == nil {
			ref = &out
			reportNote(out)
		}
		t.note("untraced repetition", out.verify(*ref))
		u.walls = append(u.walls, r.wall.Seconds())
		u.roundsPerS = append(u.roundsPerS, float64(r.rounds)/r.wall.Seconds())
		u.cpuPerKround = append(u.cpuPerKround, r.cpu.Seconds()/float64(r.rounds)*1000)
		u.workerUtil = append(u.workerUtil, r.cpu.Seconds()/(r.wall.Seconds()*float64(w.workers)))
		u.gcCycles = append(u.gcCycles, float64(r.gcCycles))
		u.gcPauseMs = append(u.gcPauseMs, float64(r.gcPauseNs)/1e6)
	}
	// tracedPass returns nil when the pass itself failed to execute; a
	// pass whose output fails verification still counts its spans.
	tracedPass := func(workers int, allocs bool) *pass {
		p := newPass(workers, allocs)
		out, err := w.traced(ctx, seed, workers, p)
		p.wall = time.Since(p.origin)
		if err == nil {
			err = out.verify(*ref)
		} else {
			p = nil
		}
		t.note(fmt.Sprintf("traced pass on %d worker(s)", workers), err)
		return p
	}

	untracedRep()
	if ref == nil {
		return nil, fmt.Errorf("the reference repetition of %s failed", w.name)
	}
	var allocTotals, timing totals
	if p := tracedPass(1, true); p != nil {
		allocTotals.add(p)
	}
	for timing.passes == 0 || time.Since(start) <= budget {
		p := tracedPass(w.workers, false)
		if p == nil {
			break
		}
		timing.add(p)
		u.tracedWalls = append(u.tracedWalls, p.wall.Seconds())
		untracedRep()
	}
	if timing.passes == 0 || allocTotals.passes == 0 {
		return nil, fmt.Errorf("no traced pass of %s succeeded", w.name)
	}
	checkShipped(ctx, w, &t)
	res := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, m := range layerMetrics {
		res.Metrics[m.name] = metric{m.value(&timing, &allocTotals, &u), m.unit}
	}
	return res, nil
}
