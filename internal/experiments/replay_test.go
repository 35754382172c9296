package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"witag/internal/obs"
)

// The forensic replay contract (DESIGN.md §11): a trial's outcome is a
// pure function of its labeled seeds, so re-running one trial from the
// label path its trace events carry must reproduce those events — and the
// deterministic metrics — byte for byte, regardless of the worker count
// the original campaign ran with.

// campaignTrace runs fn with a fresh registry + recorder installed and
// returns the recorded events and the metrics snapshot.
func campaignTrace(t *testing.T, fn func() error) ([]obs.Event, obs.Snapshot) {
	t.Helper()
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(1 << 14)
	defer SetObserver(SetObserver(obs.NewObserver(reg, rec)))
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("trace ring dropped %d events; enlarge the test capacity", rec.Dropped())
	}
	return rec.Events(), reg.Snapshot()
}

// trialSlice filters one trial's events, excluding the runner's volatile
// wall-time "trial" records — the only events that are not a pure
// function of the seeds.
func trialSlice(events []obs.Event, trial int) []obs.Event {
	var out []obs.Event
	for _, e := range events {
		if e.Trial == trial && e.Kind != "trial" {
			out = append(out, e)
		}
	}
	return out
}

// assertEventsByteIdentical JSON-encodes both slices and requires equal
// bytes at every index.
func assertEventsByteIdentical(t *testing.T, label string, want, got []obs.Event) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d events originally, %d replayed", label, len(want), len(got))
	}
	for i := range want {
		w, _ := json.Marshal(want[i])
		g, _ := json.Marshal(got[i])
		if string(w) != string(g) {
			t.Fatalf("%s: event %d diverged:\noriginal: %s\nreplayed: %s", label, i, w, g)
		}
	}
}

func TestFigure5ReplayDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := Figure5Config{Seed: 42, Runs: 2, Round: 60}
	campaign := func(workers int) ([]obs.Event, obs.Snapshot) {
		c := cfg
		c.Workers = workers
		return campaignTrace(t, func() error {
			_, err := Figure5Ctx(context.Background(), c)
			return err
		})
	}
	serialEvents, serialSnap := campaign(1)
	parallelEvents, _ := campaign(manyWorkers())

	// Count the campaign's trials from the trace itself.
	trials := 0
	for _, e := range serialEvents {
		if e.Trial >= trials {
			trials = e.Trial + 1
		}
	}
	if trials < 4 {
		t.Fatalf("campaign produced %d trials — too few to exercise replay", trials)
	}

	var replaySnaps []obs.Snapshot
	for k := 0; k < trials; k++ {
		serial := trialSlice(serialEvents, k)
		if len(serial) < cfg.Round {
			t.Fatalf("trial %d has %d events, want >= %d rounds", k, len(serial), cfg.Round)
		}
		// The per-trial slice must not depend on the campaign's worker
		// count (events interleave across trials, never within one).
		assertEventsByteIdentical(t, "worker counts", serial, trialSlice(parallelEvents, k))

		// Replay the trial from its label path alone, into fresh
		// instrumentation, and require the same bytes back.
		reg := obs.NewRegistry()
		rec := obs.NewRecorder(1 << 14)
		if _, err := ReplayTrial(context.Background(), ReplayRequest{
			Labels: serial[0].Labels, Trial: k, Seed: cfg.Seed, Rounds: cfg.Round,
			Obs: obs.NewObserver(reg, rec),
		}); err != nil {
			t.Fatalf("replay trial %d: %v", k, err)
		}
		assertEventsByteIdentical(t, "replay", serial, trialSlice(rec.Events(), k))
		replaySnaps = append(replaySnaps, reg.Snapshot())
	}

	// The per-trial replays, merged, must reproduce the campaign's whole
	// deterministic metrics view — same counters, same histogram buckets.
	merged := obs.Merge(replaySnaps...).Deterministic()
	if want := serialSnap.Deterministic(); !reflect.DeepEqual(want, merged) {
		bw, _ := json.Marshal(want)
		bm, _ := json.Marshal(merged)
		t.Fatalf("merged replay metrics differ from the campaign's:\ncampaign: %s\nreplays:  %s", bw, bm)
	}
	if serialSnap.Counters["core.rounds"] == 0 {
		t.Fatal("campaign recorded no rounds — vacuous comparison")
	}
}

// simNamespaces restricts a snapshot to the simulation-layer instruments
// (core./link./fault.) — the part a runner-less replay reproduces. The
// robustness campaign's runner.* counters track scheduling bookkeeping
// that per-trial replays legitimately lack.
func simNamespaces(s obs.Snapshot) obs.Snapshot {
	out := obs.Snapshot{
		Counters:   map[string]int64{},
		Histograms: map[string]obs.HistogramSnapshot{},
	}
	keep := func(name string) bool {
		return strings.HasPrefix(name, "core.") || strings.HasPrefix(name, "link.") || strings.HasPrefix(name, "fault.")
	}
	for n, v := range s.Counters {
		if keep(n) {
			out.Counters[n] = v
		}
	}
	for n, h := range s.Histograms {
		if keep(n) {
			out.Histograms[n] = h
		}
	}
	return out
}

func TestRobustnessReplayDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := RobustnessConfig{
		Seed: 11, PayloadBytes: 48, Transfers: 3,
		BaseProfile: "bursty", LossBadPoints: []float64{0.95},
	}
	campaign := func(workers int) ([]obs.Event, obs.Snapshot) {
		c := cfg
		c.Workers = workers
		return campaignTrace(t, func() error {
			_, err := RobustnessCtx(context.Background(), c)
			return err
		})
	}
	serialEvents, serialSnap := campaign(1)
	parallelEvents, _ := campaign(manyWorkers())

	trials := len(cfg.LossBadPoints) * 2 * cfg.Transfers // points × modes × transfers
	sawSegments := false
	var replaySnaps []obs.Snapshot
	for k := 0; k < trials; k++ {
		serial := trialSlice(serialEvents, k)
		if len(serial) == 0 {
			t.Fatalf("trial %d emitted no events", k)
		}
		assertEventsByteIdentical(t, "worker counts", serial, trialSlice(parallelEvents, k))
		for _, e := range serial {
			if e.Kind == "segment" {
				sawSegments = true
			}
		}

		reg := obs.NewRegistry()
		rec := obs.NewRecorder(1 << 14)
		if _, err := ReplayTrial(context.Background(), ReplayRequest{
			Labels: serial[0].Labels, Trial: k, Seed: cfg.Seed,
			PayloadBytes: cfg.PayloadBytes, FaultProfile: cfg.BaseProfile,
			Obs: obs.NewObserver(reg, rec),
		}); err != nil {
			t.Fatalf("replay trial %d (%s): %v", k, serial[0].Labels, err)
		}
		assertEventsByteIdentical(t, "replay "+serial[0].Labels, serial, trialSlice(rec.Events(), k))
		replaySnaps = append(replaySnaps, reg.Snapshot())
	}
	if !sawSegments {
		t.Fatal("no segment events in the campaign — ARQ path not exercised")
	}

	// Simulation-layer metrics: merged replays == campaign, exactly.
	merged := simNamespaces(obs.Merge(replaySnaps...).Deterministic())
	if want := simNamespaces(serialSnap.Deterministic()); !reflect.DeepEqual(want, merged) {
		bw, _ := json.Marshal(want)
		bm, _ := json.Marshal(merged)
		t.Fatalf("merged replay metrics differ from the campaign's:\ncampaign: %s\nreplays:  %s", bw, bm)
	}
	if serialSnap.Counters["link.transfers_started"] == 0 {
		t.Fatal("campaign started no transfers — vacuous comparison")
	}
}

func TestAblationReplayDeterministicAcrossWorkerCounts(t *testing.T) {
	// Every ablation configuration, plus two §7 power configurations,
	// recorded on a many-worker pool and replayed one at a time with the
	// request witag-trace builds by default: Rounds is the trial's
	// round-event count, which the FEC ablation must not read as frames.
	const seed, rounds = 42, 80
	ctx := context.Background()
	events, _ := campaignTrace(t, func() error {
		for _, a := range Ablations {
			if _, err := RunAblation(ctx, a.Name, seed, rounds, manyWorkers()); err != nil {
				return err
			}
		}
		_, err := Section7PowerCtx(ctx, seed, manyWorkers())
		return err
	})

	labels := []string{"power/cfg=0", "power/cfg=3"}
	for _, a := range Ablations {
		for i := range a.cfgs {
			labels = append(labels, fmt.Sprintf("ablation/%s/cfg=%d", a.Name, i))
		}
	}
	for _, l := range labels {
		// Trial IDs repeat across ablations, so the label path picks the
		// slice, as witag-trace's -labels does.
		var orig []obs.Event
		n := 0
		for _, e := range events {
			if e.Labels == l && e.Kind != "trial" {
				orig = append(orig, e)
				if e.Kind == "round" {
					n++
				}
			}
		}
		if n == 0 {
			t.Fatalf("%s: the campaign recorded no rounds", l)
		}
		rec := obs.NewRecorder(1 << 14)
		if _, err := ReplayTrial(ctx, ReplayRequest{
			Labels: l, Trial: orig[0].Trial, Seed: seed, Rounds: n,
			Obs: obs.NewObserver(obs.NewRegistry(), rec),
		}); err != nil {
			t.Fatalf("replay %s: %v", l, err)
		}
		assertEventsByteIdentical(t, "replay "+l, orig, trialSlice(rec.Events(), orig[0].Trial))
	}
}
