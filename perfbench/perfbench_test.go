package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
)

const testSeed = 1

// TestTracedRunsReproduceAndBypass runs every workload untraced and
// traced and checks that:
//   - tracing does not perturb the science: a traced pass, on one worker
//     and on the workload's own count, reproduces the untraced outcome
//     (digest, or round and delivery counts on coding_mix);
//   - the two-worker workloads give the same digest on one worker;
//   - each workload reaches exactly the layers it is meant to: no link
//     model on bittrue_phy, no bit-true receiver on the experiment
//     workloads, no fault, traffic, link or coding layer on the figures.
func TestTracedRunsReproduceAndBypass(t *testing.T) {
	ctx := context.Background()
	codingLayers := []layer{lFault, lTraffic, lLinkSend, lFountainSend, lRSSend,
		lRSParity, lRSReconstruct, lFountainAdd, lCodecEncode, lCodecDecode}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			ref, err := w.run(ctx, testSeed, w.workers)
			if err != nil {
				t.Fatal(err)
			}
			if ref.checkErr != nil {
				t.Fatalf("science check at seed %d: %v", testSeed, ref.checkErr)
			}
			if w.workers > 1 {
				one, err := w.run(ctx, testSeed, 1)
				if err != nil {
					t.Fatal(err)
				}
				if err := one.verify(ref); err != nil {
					t.Fatalf("1 vs %d workers: %v", w.workers, err)
				}
			}
			var tot totals
			for _, workers := range []int{1, w.workers} {
				p := newPass(workers, workers == 1)
				out, err := w.traced(ctx, testSeed, workers, p)
				if err != nil {
					t.Fatal(err)
				}
				if err := out.verify(ref); err != nil {
					t.Fatalf("traced on %d worker(s): %v", workers, err)
				}
				tot.add(p)
			}

			mustRun := func(ls ...layer) {
				t.Helper()
				for _, l := range ls {
					if tot.calls[l] == 0 {
						t.Errorf("layer %d never called", l)
					}
				}
			}
			mustSkip := func(ls ...layer) {
				t.Helper()
				for _, l := range ls {
					if tot.calls[l] != 0 {
						t.Errorf("layer %d called %v times, want 0", l, tot.calls[l])
					}
				}
			}
			if w.name == "bittrue_phy" {
				mustRun(lTransmit, lApplyChannel, lEstimateCSI, lReceive, lViterbi)
				mustSkip(lRound, lLinkModel, lEval, lAMPDU)
				mustSkip(codingLayers...)
				return
			}
			mustRun(lBuild, lAdvance, lRound, lEval, lDistortion, lLinkModel, lAMPDU, lScoreboard, lDetect, lCoverage)
			mustSkip(lTransmit, lApplyChannel, lEstimateCSI, lReceive, lViterbi)
			if w.name == "coding_mix" {
				mustRun(codingLayers...)
			} else {
				mustSkip(codingLayers...)
			}
			for _, l := range []layer{lRound, lAMPDU} {
				if tot.allocs[l] <= 0 {
					t.Errorf("allocation pass saw no heap allocations in layer %d", l)
				}
			}
		})
	}
}

// TestShippedChecks makes every workload's shipped-set-up science check.
func TestShippedChecks(t *testing.T) {
	for _, w := range workloads {
		if w.shipped == nil {
			continue
		}
		if err := w.shipped(context.Background()); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

// TestBenchmarkDeclarationMatches pins the metric names and units the
// benchmark prints to the ones BENCHMARK.json declares.
func TestBenchmarkDeclarationMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, d := range spec.Workloads {
		if _, ok := findWorkload(d.Name); !ok {
			t.Errorf("declared workload %q does not exist", d.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEndUnits) {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics, the benchmark prints %d", len(spec.EndToEnd), len(endToEndUnits))
	}
	for _, d := range spec.EndToEnd {
		if u, ok := endToEndUnits[d.Name]; !ok || u != d.Unit {
			t.Errorf("end-to-end metric %s: declared unit %q, printed %q", d.Name, d.Unit, u)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the benchmark prints %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, d := range spec.PerLayer {
		if m := layerMetrics[i]; m.name != d.Name || m.unit != d.Unit {
			t.Errorf("per-layer metric %d: declared %s (%s), printed %s (%s)", i, d.Name, d.Unit, m.name, m.unit)
		}
	}
}
