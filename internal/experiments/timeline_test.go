package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"witag/internal/obs"
)

// Timeline capture rides the same determinism contract as logging
// (logging_test.go): attaching a timeline to a campaign is a pure sink —
// it changes no science byte even though it reshapes the runner's
// execution into window-sized chunks — and the logical timeline export
// itself is byte-identical across worker counts. `make determinism` runs
// both tests.

// timedRobustness runs the shared small sweep under a campaign scope
// with a timeline attached, returning the result and the TL JSONL bytes.
func timedRobustness(t *testing.T, workers int) (*RobustnessResult, string) {
	t.Helper()
	camp := obs.NewCampaign("test-tl", obs.CampaignOptions{})
	tl := obs.NewTimeline(camp.Registry, obs.TimelineConfig{WindowTrials: 8})
	camp.SetTimeline(tl)
	defer SetObserver(SetObserver(camp.Observer))
	defer SetCampaign(SetCampaign(camp))

	res, err := Robustness(obsRobustnessConfig(workers))
	if err != nil {
		t.Fatal(err)
	}
	tl.Flush()
	var buf bytes.Buffer
	if err := tl.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return res, buf.String()
}

func TestTimelineDoesNotPerturbResults(t *testing.T) {
	defer SetObserver(SetObserver(nil))
	defer SetCampaign(SetCampaign(nil))
	bare, err := Robustness(obsRobustnessConfig(manyWorkers()))
	if err != nil {
		t.Fatal(err)
	}

	timed, _ := timedRobustness(t, manyWorkers())
	if !reflect.DeepEqual(bare, timed) {
		bb, _ := json.Marshal(bare)
		bt, _ := json.Marshal(timed)
		t.Fatalf("attaching a timeline changed the science:\nbare:  %s\ntimed: %s", bb, bt)
	}
}

func TestTimelineWindowsIdenticalAcrossWorkerCounts(t *testing.T) {
	defer SetObserver(SetObserver(nil))
	defer SetCampaign(SetCampaign(nil))
	_, serial := timedRobustness(t, 1)
	_, parallel := timedRobustness(t, manyWorkers())
	if serial != parallel {
		t.Fatalf("worker count changed the timeline export:\n1 worker:\n%s\nparallel:\n%s", serial, parallel)
	}
	// Guard against the vacuous pass: real windows with real deltas.
	log, err := obs.ReadTimelineLog(bytes.NewReader([]byte(parallel)))
	if err != nil {
		t.Fatal(err)
	}
	wins := log.Windows
	if len(wins) < 2 {
		t.Fatalf("sweep produced only %d logical windows", len(wins))
	}
	var rounds int64
	for _, w := range wins {
		rounds += w.Delta.Counters["core.rounds"]
	}
	if rounds == 0 {
		t.Fatal("timeline windows carry no core.rounds activity")
	}
}
