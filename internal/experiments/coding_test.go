package experiments

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"witag/internal/obs"
	"witag/internal/stats"
)

func TestAdaptiveCodingSweepShape(t *testing.T) {
	cfg := DefaultAdaptiveCodingConfig()
	cfg.Transfers = 30 // reduced scale; witag-bench runs the default 60
	res, err := AdaptiveCodingCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.ShapeChecks(); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(cfg.Profiles) {
		t.Fatalf("%d points for %d profiles", len(res.Points), len(cfg.Profiles))
	}
	for _, p := range res.Points {
		if len(p.Cells) != len(CodingSchemes) {
			t.Fatalf("profile %q has %d cells, want %d", p.Profile.Name, len(p.Cells), len(CodingSchemes))
		}
	}
	if res.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestAdaptiveCodingConfigValidation(t *testing.T) {
	base := DefaultAdaptiveCodingConfig()
	cases := map[string]func(c *AdaptiveCodingConfig){
		"zero payload":    func(c *AdaptiveCodingConfig) { c.PayloadBytes = 0 },
		"zero transfers":  func(c *AdaptiveCodingConfig) { c.Transfers = 0 },
		"no profiles":     func(c *AdaptiveCodingConfig) { c.Profiles = nil },
		"unknown fault":   func(c *AdaptiveCodingConfig) { c.Profiles[0].Fault = "nope" },
		"unknown traffic": func(c *AdaptiveCodingConfig) { c.Profiles[0].Traffic = "nope" },
		"unknown scheme":  func(c *AdaptiveCodingConfig) { c.Schemes = []string{"arq", "turbo"} },
		"duplicate":       func(c *AdaptiveCodingConfig) { c.Schemes = []string{"rs", "rs"} },
	}
	for name, mutate := range cases {
		cfg := base
		cfg.Profiles = append([]CodingProfile(nil), base.Profiles...)
		mutate(&cfg)
		if _, err := AdaptiveCodingCtx(context.Background(), cfg); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

// TestCodingSchemeOutsideSeedTree pins the paired-world contract: the
// scheme under comparison must never enter the seed tree, so the same
// (profile, tr) world presents byte-identical channel realizations to
// ARQ, fountain and RS. Build the world through the harness's own
// codingWorld for each scheme, drive identical query rounds, and require
// the observable channel behaviour to match bit for bit.
func TestCodingSchemeOutsideSeedTree(t *testing.T) {
	cfg := DefaultAdaptiveCodingConfig()
	cfg.Seed = 99
	for _, prof := range cfg.Profiles {
		type roundObs struct {
			Detected  bool
			BALost    bool
			BitErrors int
			RxBits    []byte
		}
		var ref []roundObs
		for si, scheme := range CodingSchemes {
			sys, env, payload, _, err := codingWorld(cfg, prof, scheme, 0, 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			var got []roundObs
			bits := make([]byte, sys.Spec.DataLen)
			for i := range bits {
				bits[i] = byte(i+len(payload)) & 1
			}
			for r := 0; r < 40; r++ {
				res, err := sys.QueryRound(bits)
				if err != nil {
					t.Fatal(err)
				}
				// RxBits is the system's round scratch: keep a copy.
				got = append(got, roundObs{res.Detected, res.BALost, res.BitErrors, append([]byte(nil), res.RxBits...)})
				env.Advance(0.05)
			}
			if si == 0 {
				ref = got
				continue
			}
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("profile %q: scheme %q saw a different channel than %q — scheme leaked into the seed tree",
					prof.Name, scheme, CodingSchemes[0])
			}
		}
		if fmt.Sprint(ref) == "" {
			t.Fatal("no rounds observed")
		}
	}
}

// RunTransfer is the one transfer entry point behind both the coding
// sweep and witag-sim -transfer: every scheme must deliver a small
// payload over a clean line-of-sight testbed, report its traffic under
// the system's trace identity, and an unknown scheme must be an error.
func TestRunTransferSchemes(t *testing.T) {
	for _, scheme := range CodingSchemes {
		sys, env, err := LoSTestbed(2, 7)
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.NewRecorder(1 << 12)
		sys.Obs = obs.NewObserver(obs.NewRegistry(), rec)
		sys.TraceID, sys.TraceLabels = 3, "test/scheme="+scheme
		payload := stats.RandomBytes(stats.NewRNG(1), 48)
		out, err := RunTransfer(context.Background(), scheme, sys, env, payload, 11)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if !out.Delivered || out.Rounds == 0 || out.Frames == 0 || out.Airtime <= 0 || out.GoodputBps <= 0 {
			t.Errorf("%s: outcome %+v, want a delivered transfer with traffic", scheme, out)
		}
		var buf bytes.Buffer
		if err := rec.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(buf.Bytes(), []byte(`{"kind":"transfer","trial":3,"labels":"test/scheme=`+scheme+`"`)) {
			t.Errorf("%s: no transfer event under the system's trace identity:\n%s", scheme, buf.Bytes())
		}
	}
	sys, env, err := LoSTestbed(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunTransfer(context.Background(), "carrier-pigeon", sys, env, []byte{1}, 1); err == nil {
		t.Error("unknown scheme accepted")
	}
}
