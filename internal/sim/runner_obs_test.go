package sim

import (
	"context"
	"errors"
	"io"
	"sync/atomic"
	"testing"

	"witag/internal/obs"
)

// The runner's error and cancellation semantics must hold unchanged with
// metrics and progress attached, and the bookkeeping itself must stay
// race-clean (`make race` runs this file under the detector).

func instrumentedRunner(workers int) (Runner, *obs.Registry) {
	camp := obs.NewCampaign("runner-test", obs.CampaignOptions{
		TraceCap: 1 << 10,
		Progress: obs.NewProgress(io.Discard, "items"),
	})
	return Runner{Workers: workers, Obs: camp.Observer, Campaign: camp}, camp.Registry
}

func TestEachFirstErrorPropagatesWithInstrumentation(t *testing.T) {
	r, reg := instrumentedRunner(4)
	sentinel := errors.New("boom")
	var calls atomic.Int64
	err := r.Each(context.Background(), 64, func(ctx context.Context, i int) error {
		calls.Add(1)
		if i == 5 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Each returned %v, want the first worker error", err)
	}

	// Accounting invariant: every started item resolved as done or
	// failed, exactly matching the number of fn invocations.
	snap := reg.Snapshot()
	started := snap.Counters["runner.trials_started"]
	done := snap.Counters["runner.trials_done"]
	failed := snap.Counters["runner.trials_failed"]
	if failed < 1 {
		t.Errorf("trials_failed = %d, want >= 1", failed)
	}
	if started != done+failed {
		t.Errorf("started %d != done %d + failed %d", started, done, failed)
	}
	if calls.Load() != started {
		t.Errorf("fn ran %d times but trials_started = %d", calls.Load(), started)
	}
}

func TestEachCancellationWithInstrumentation(t *testing.T) {
	r, reg := instrumentedRunner(4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	err := r.Each(ctx, 1<<20, func(ctx context.Context, i int) error {
		if calls.Add(1) == 8 {
			cancel() // external cancellation mid-campaign
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Each returned %v, want context.Canceled", err)
	}
	snap := reg.Snapshot()
	started := snap.Counters["runner.trials_started"]
	if started >= 1<<20 {
		t.Errorf("cancellation did not stop the campaign (started %d items)", started)
	}
	if done := snap.Counters["runner.trials_done"]; started != done {
		t.Errorf("started %d != done %d with no failures", started, done)
	}
}

func TestEachPanickingTrialBecomesError(t *testing.T) {
	r, reg := instrumentedRunner(4)
	events, unsubscribe := r.Campaign.Events.Subscribe(16)
	defer unsubscribe()
	err := r.Each(context.Background(), 8, func(ctx context.Context, i int) error {
		if i == 3 {
			panic("bad geometry")
		}
		return nil
	})
	if err == nil || err.Error() != "sim: trial 3 panicked: bad geometry" {
		t.Fatalf("Each returned %v, want the panic as trial 3's error", err)
	}
	if got := reg.Snapshot().Counters["runner.trials_failed"]; got != 1 {
		t.Errorf("trials_failed = %d, want 1", got)
	}
	unsubscribe()
	anomalies := 0
	for ev := range events {
		if ev.Kind == "anomaly" {
			anomalies++
		}
	}
	if anomalies != 1 {
		t.Errorf("campaign published %d anomalies, want 1", anomalies)
	}
}

func TestEachPanicRecoveryAllocatesNothingPerTrial(t *testing.T) {
	r := Runner{Workers: 1}
	each := func(n int) float64 {
		return testing.AllocsPerRun(20, func() {
			_ = r.Each(context.Background(), n, func(context.Context, int) error { return nil })
		})
	}
	if one, many := each(1), each(64); many != one {
		t.Errorf("Each allocates %v times for 64 trials vs %v for 1", many, one)
	}
}
