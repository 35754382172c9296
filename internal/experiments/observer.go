package experiments

import (
	"sync/atomic"

	"witag/internal/obs"
	"witag/internal/sim"
)

// The experiment harnesses build their deployments deep inside trial
// closures, so the observability layer is threaded through one
// package-level handle instead of through every config struct: install an
// observer once (witag-bench does this from its flags), and every system,
// injector, transferer and runner the harnesses construct from then on is
// instrumented. The handle is read at build time on worker goroutines,
// hence the atomic pointers; install before starting a harness, not
// during one.
//
// Instrumentation never draws RNG values and never feeds back into a
// trial, so installing an observer cannot change any experiment output —
// TestInstrumentationDoesNotPerturbResults holds the receipt.

var (
	observer atomic.Pointer[obs.Observer]
	campaign atomic.Pointer[obs.Campaign]
)

// SetObserver installs o as the package observer and returns the previous
// one (nil disables instrumentation; tests restore with the return).
func SetObserver(o *obs.Observer) (prev *obs.Observer) {
	return observer.Swap(o)
}

// SetCampaign installs the campaign scope the harnesses' runners report
// into (its progress reporter, timeline and live progress/anomaly events
// on its SSE broker), returning the previous one. Install a campaign
// *and* its observer together:
// SetCampaign(c) pairs with SetObserver(c.Observer), so the metrics the
// campaign's /campaigns/<id>/metrics endpoint serves are the metrics the
// harnesses actually moved.
func SetCampaign(c *obs.Campaign) (prev *obs.Campaign) {
	return campaign.Swap(c)
}

// currentObserver returns the installed observer (nil when off).
func currentObserver() *obs.Observer { return observer.Load() }

// simRunner is the pool every harness uses, wired to the package
// observer and campaign scope.
func simRunner(workers int) sim.Runner {
	return sim.Runner{Workers: workers, Obs: observer.Load(), Campaign: campaign.Load()}
}
