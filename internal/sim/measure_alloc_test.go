package sim_test

import (
	"context"
	"runtime/debug"
	"testing"

	"witag/internal/experiments"
	"witag/internal/sim"
)

// A measurement run allocates only its per-run state (the payload RNG
// and one bits buffer), never per round: on a warmed-up system a
// 200-round run makes exactly as many allocations as a 50-round one.
func TestMeasureRunAllocatesNothingPerRound(t *testing.T) {
	sys, env, err := experiments.LoSTestbed(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// With the collector off, the runtime's own bookkeeping after a
	// collection is not counted against the run.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := func(rounds int) float64 {
		var runErr error
		n := testing.AllocsPerRun(5, func() {
			if _, err := sim.MeasureRun(context.Background(), sys, env, rounds, 7); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatal(runErr)
		}
		return n
	}
	if short, long := run(50), run(200); short != long {
		t.Errorf("MeasureRun: %v allocs for 50 rounds, %v for 200; want equal", short, long)
	}
}
