package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"witag/internal/fault"
	"witag/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens")

// TestTransferSchemesMatchGolden pins every transfer scheme's observable
// behaviour byte for byte: for one coding-sweep transfer on each of the
// office and saturated profiles (and one no-ARQ robustness transfer) it records
// the transfer outcomes, the link.*/coding.* metrics and the full trace.
// Any change to RNG draw order, backoff charging, verdict accounting or
// trace events shows up as a golden diff. Regenerate with
// `go test ./internal/experiments -run TransferSchemesMatchGolden -update`
// only for an intended change.
func TestTransferSchemesMatchGolden(t *testing.T) {
	cfg := DefaultAdaptiveCodingConfig()
	var profiles []CodingProfile
	for _, p := range cfg.Profiles {
		if p.Name == "office" || p.Name == "saturated" {
			profiles = append(profiles, p)
		}
	}
	type run func(ctx context.Context, o *obs.Observer, id int) (any, error)
	cases := map[string][]run{}
	for _, scheme := range CodingSchemes {
		for _, prof := range profiles {
			cases[scheme] = append(cases[scheme], func(ctx context.Context, o *obs.Observer, id int) (any, error) {
				return codingTransfer(ctx, cfg, prof, scheme, id, 0, o)
			})
		}
	}
	rcfg := DefaultRobustnessConfig()
	base, err := fault.Named(rcfg.BaseProfile)
	if err != nil {
		t.Fatal(err)
	}
	cases["robustness_noarq"] = []run{func(ctx context.Context, o *obs.Observer, id int) (any, error) {
		rt, err := robustnessTransfer(ctx, rcfg, base, 0.6, 0, id, 2, o)
		return fmt.Sprintf("%+v", rt), err
	}}

	seen := map[string]int64{}
	for name, runs := range cases {
		rec := obs.NewRecorder(1 << 16)
		o := obs.NewObserver(obs.NewRegistry(), rec)
		var b strings.Builder
		for i, r := range runs {
			out, err := r(context.Background(), o, i+1)
			if err != nil {
				t.Fatalf("%s transfer %d: %v", name, i, err)
			}
			js, _ := json.Marshal(out)
			fmt.Fprintf(&b, "outcome %d %s\n", i, js)
		}
		snap := o.Registry.Snapshot()
		var names []string
		for n := range snap.Counters {
			if strings.HasPrefix(n, "link.") || strings.HasPrefix(n, "coding.") {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "metric %s %d\n", n, snap.Counters[n])
			seen[n] += snap.Counters[n]
		}
		h := snap.Histograms["link.backoff_wait_us"]
		fmt.Fprintf(&b, "metric link.backoff_wait_us count=%d sum=%d counts=%v\n", h.Count, h.Sum, h.Counts)
		var trace bytes.Buffer
		if err := rec.WriteJSONL(&trace); err != nil {
			t.Fatal(err)
		}
		b.Write(trace.Bytes())
		if name != "arq" && name != "robustness_noarq" && backoffCharges(t, trace.Bytes()) == 0 {
			t.Errorf("%s: no transfer was charged a backoff", name)
		}
		goldenCompare(t, filepath.Join("testdata", "transfer_"+name+".golden"), b.String())
	}
	// The goldens only pin the paths they exercise: require each of them.
	for _, n := range []string{
		"link.round_failures", "link.residual_errors", "link.backoff_waits",
		"coding.frame_erasures", "coding.frame_errors", "coding.parity_resizes",
	} {
		if seen[n] == 0 {
			t.Errorf("%s never moved: the golden transfers do not exercise it", n)
		}
	}
}

// backoffCharges counts transfers whose airtime exceeds their rounds'
// on-air time by more than rounding, i.e. that waited out a backoff.
func backoffCharges(t *testing.T, jsonl []byte) int {
	t.Helper()
	tr, err := obs.ReadJSONL(bytes.NewReader(jsonl))
	if err != nil {
		t.Fatal(err)
	}
	onAir := map[int]int64{}
	n := 0
	for _, e := range tr.Events {
		switch e.Kind {
		case "round":
			onAir[e.Trial] += e.AirtimeUs
		case "transfer":
			if e.AirtimeUs-onAir[e.Trial] > 1000 {
				n++
			}
		}
	}
	return n
}

func goldenCompare(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/experiments -run TransferSchemesMatchGolden -update` to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from its golden (diff the file after -update to see where)", path)
	}
}
