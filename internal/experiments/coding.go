package experiments

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"witag/internal/channel"
	"witag/internal/coding"
	"witag/internal/core"
	"witag/internal/fault"
	"witag/internal/link"
	"witag/internal/obs"
	"witag/internal/sim"
	"witag/internal/stats"
	"witag/internal/traffic"
)

// AdaptiveCoding: the reliability-scheme shoot-out the related work calls
// for. Three transfer schemes — selective-repeat ARQ with the AIMD coding
// ladder (ours), an LT-style fountain code (FlexScatter's rateless
// approach) and adaptive Reed-Solomon blocks (GuardRider's
// loss-statistics-sized parity) — each move the same payload over the
// same labeled worlds under composed fault (Gilbert–Elliott interference)
// and traffic (MMPP ambient load) profiles. Reported per (profile,
// scheme): completion probability, goodput, airtime overhead and a
// tag-energy proxy. The scheme deliberately never enters the seed tree,
// only the trace label path, so the comparison isolates the scheme.

// CodingSchemes names the compared transfer schemes, in sweep order.
var CodingSchemes = []string{"arq", "fountain", "rs"}

// CodingProfile is one swept channel condition: a fault preset composed
// with an ambient-traffic preset. Empty names disable that layer.
type CodingProfile struct {
	Name    string
	Fault   string // fault.Named preset; "" = no injector
	Traffic string // traffic.Named preset; "" = no ambient load
	// Bursty marks the profiles where the acceptance claim (coded schemes
	// beat ARQ on goodput or overhead) is asserted.
	Bursty bool
}

// AdaptiveCodingConfig parameterises the sweep.
type AdaptiveCodingConfig struct {
	Seed         int64
	PayloadBytes int // transfer size (default 96)
	Transfers    int // independent transfers per (profile, scheme)
	Workers      int // concurrent trial workers; <= 0 means runtime.NumCPU()
	Profiles     []CodingProfile
	// Schemes restricts the sweep to a subset of CodingSchemes (the CLI's
	// -transfer flag). Empty means all of them; note ShapeChecks asserts
	// the full three-scheme comparison, so subsets are for exploration,
	// not gating.
	Schemes []string
}

// DefaultAdaptiveCodingConfig is the witag-bench scale: four composed
// profiles from near-idle to hostile.
func DefaultAdaptiveCodingConfig() AdaptiveCodingConfig {
	return AdaptiveCodingConfig{
		Seed:         47,
		PayloadBytes: 96,
		Transfers:    60,
		Profiles: []CodingProfile{
			{Name: "quiet", Fault: "calm", Traffic: "quiet"},
			{Name: "office", Fault: "bursty", Traffic: "office", Bursty: true},
			{Name: "download", Fault: "bursty", Traffic: "download", Bursty: true},
			{Name: "saturated", Fault: "bursty", Traffic: "saturated", Bursty: true},
		},
	}
}

// CodingCell is one (profile, scheme) aggregate.
type CodingCell struct {
	Scheme   string
	Delivery float64 // fraction of transfers completed
	// GoodputKbps is mean payload bits / airtime over delivered transfers.
	GoodputKbps float64
	// OverheadRatio is mean on-air subframe-bits per payload bit:
	// rounds·DataLen / (8·payloadBytes). 1.0 would be a perfect single
	// pass with zero redundancy; ARQ retransmissions, fountain overhead
	// symbols and RS parity all land here.
	OverheadRatio float64
	// EnergySlots is the tag-energy proxy: mean subframe slots the tag
	// spends awake and switching, rounds × Spec.Total().
	EnergySlots float64
	MeanRounds  float64
	// Scheme-specific means: ARQ retries / fountain symbols / RS shards
	// per transfer, decode attempts, and RS parity resize events.
	MeanFrames     float64
	DecodeAttempts float64
	ParityResizes  float64
}

// CodingPoint is one profile's row of scheme cells.
type CodingPoint struct {
	Profile CodingProfile
	Cells   []CodingCell // indexed like CodingSchemes
}

// AdaptiveCodingResult is the whole sweep.
type AdaptiveCodingResult struct {
	PayloadBytes int
	Transfers    int
	Points       []CodingPoint
}

// TransferOutcome is one payload transfer's result.
type TransferOutcome struct {
	Delivered      bool
	Rounds         int
	Frames         int // frames put on the air
	DecodeAttempts int // fountain peeling passes / RS reconstructions
	ParityResizes  int // RS parity adaptations
	Airtime        time.Duration
	GoodputBps     float64
}

// AdaptiveCoding runs the sweep.
func AdaptiveCoding(cfg AdaptiveCodingConfig) (*AdaptiveCodingResult, error) {
	return AdaptiveCodingCtx(context.Background(), cfg)
}

// AdaptiveCodingCtx is AdaptiveCoding with cancellation.
func AdaptiveCodingCtx(ctx context.Context, cfg AdaptiveCodingConfig) (*AdaptiveCodingResult, error) {
	if cfg.PayloadBytes < 1 || cfg.PayloadBytes > link.MaxTransfer {
		return nil, fmt.Errorf("experiments: payload %d bytes outside [1,%d]", cfg.PayloadBytes, link.MaxTransfer)
	}
	if cfg.Transfers < 1 || len(cfg.Profiles) == 0 {
		return nil, fmt.Errorf("experiments: need ≥1 transfer and ≥1 profile")
	}
	schemeNames := cfg.Schemes
	if len(schemeNames) == 0 {
		schemeNames = CodingSchemes
	}
	seen := map[string]bool{}
	for _, s := range schemeNames {
		if !slices.Contains(CodingSchemes, s) {
			return nil, fmt.Errorf("experiments: unknown coding scheme %q (valid: %s)", s, strings.Join(CodingSchemes, ", "))
		}
		if seen[s] {
			return nil, fmt.Errorf("experiments: scheme %q listed twice", s)
		}
		seen[s] = true
	}
	// Validate every profile name up front — no partial sweeps.
	for _, p := range cfg.Profiles {
		if p.Fault != "" {
			if _, err := fault.Named(p.Fault); err != nil {
				return nil, err
			}
		}
		if p.Traffic != "" {
			if _, err := traffic.Named(p.Traffic); err != nil {
				return nil, err
			}
		}
	}
	perProfile := len(schemeNames) * cfg.Transfers
	n := len(cfg.Profiles) * perProfile

	trials, err := sim.Map(ctx, simRunner(cfg.Workers), n,
		func(ctx context.Context, i int) (TransferOutcome, error) {
			pi := i / perProfile
			scheme := schemeNames[i%perProfile/cfg.Transfers]
			tr := i % cfg.Transfers
			return codingTransfer(ctx, cfg, cfg.Profiles[pi], scheme, i, tr, currentObserver())
		})
	if err != nil {
		return nil, err
	}

	// Overhead and energy need the query spec; every testbed runs the
	// default one.
	spec := core.DefaultQuerySpec()
	dataLen := float64(spec.DataLen)
	payloadBits := float64(8 * cfg.PayloadBytes)
	res := &AdaptiveCodingResult{PayloadBytes: cfg.PayloadBytes, Transfers: cfg.Transfers}
	for pi, prof := range cfg.Profiles {
		pt := CodingPoint{Profile: prof}
		for si, scheme := range schemeNames {
			cell := CodingCell{Scheme: scheme}
			var goodput float64
			delivered := 0
			for tr := 0; tr < cfg.Transfers; tr++ {
				t := trials[pi*perProfile+si*cfg.Transfers+tr]
				if t.Delivered {
					delivered++
					goodput += t.GoodputBps
				}
				cell.MeanRounds += float64(t.Rounds)
				cell.MeanFrames += float64(t.Frames)
				cell.DecodeAttempts += float64(t.DecodeAttempts)
				cell.ParityResizes += float64(t.ParityResizes)
				cell.EnergySlots += float64(t.Rounds * spec.Total())
			}
			nT := float64(cfg.Transfers)
			cell.Delivery = float64(delivered) / nT
			if delivered > 0 {
				cell.GoodputKbps = goodput / float64(delivered) / 1000
			}
			cell.MeanRounds /= nT
			cell.MeanFrames /= nT
			cell.DecodeAttempts /= nT
			cell.ParityResizes /= nT
			cell.EnergySlots /= nT
			cell.OverheadRatio = cell.MeanRounds * dataLen / payloadBits
			pt.Cells = append(pt.Cells, cell)
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// codingTransfer runs exactly one transfer of the sweep: the paired world
// for (profile, tr), moved with the given scheme.
func codingTransfer(ctx context.Context, cfg AdaptiveCodingConfig, prof CodingProfile, scheme string, traceID, tr int, o *obs.Observer) (TransferOutcome, error) {
	sys, env, payload, label, err := codingWorld(cfg, prof, scheme, traceID, tr, o)
	if err != nil {
		return TransferOutcome{}, err
	}
	return RunTransfer(ctx, scheme, sys, env, payload, label("xfer"))
}

// RunTransfer moves payload across the deployment with the named scheme
// (one of CodingSchemes) at that scheme's default configuration, seeding
// the transferer with xferSeed. Every transferer reports into sys's
// observer under sys's trace identity. A payload reported delivered but
// not equal to the one sent is an error: a scheme that corrupts data
// must fail loudly, not score goodput.
func RunTransfer(ctx context.Context, scheme string, sys *core.System, env *channel.Environment, payload []byte, xferSeed int64) (TransferOutcome, error) {
	var xfer interface {
		Send(context.Context, []byte) (*link.Stats, error)
	}
	switch scheme {
	case "arq":
		cc, err := link.NewCodingController(0)
		if err != nil {
			return TransferOutcome{}, err
		}
		xfer = link.NewTransferer(sys, env, link.DefaultPolicy(), cc, xferSeed)
	case "fountain":
		xfer = coding.NewFountainTransferer(sys, env, coding.DefaultFountainConfig(), xferSeed)
	case "rs":
		xfer = coding.NewRSTransferer(sys, env, coding.DefaultRSConfig(), xferSeed)
	default:
		return TransferOutcome{}, fmt.Errorf("experiments: unknown scheme %q", scheme)
	}
	st, err := xfer.Send(ctx, payload)
	if err != nil {
		return TransferOutcome{}, err
	}
	if st.Delivered && !bytes.Equal(st.Received, payload) {
		return TransferOutcome{}, fmt.Errorf("experiments: %s delivered a corrupted payload (%s)", scheme, sys.TraceLabels)
	}
	return TransferOutcome{Delivered: st.Delivered, Rounds: st.Rounds, Frames: st.FramesSent,
		DecodeAttempts: st.DecodeAttempts, ParityResizes: st.ParityResizes,
		Airtime: st.Airtime, GoodputBps: st.GoodputBps()}, nil
}

// codingWorld rebuilds the labeled world for one (profile, tr) pair:
// testbed environment, fault injector, traffic generator and payload,
// every seed derived from the world path alone. scheme affects ONLY the
// trace labels — the paired-world determinism test drives identical
// channel realizations through codingWorld for every scheme to pin that
// property down.
func codingWorld(cfg AdaptiveCodingConfig, prof CodingProfile, scheme string, traceID, tr int, o *obs.Observer) (*core.System, *channel.Environment, []byte, func(string) int64, error) {
	var fp *fault.Profile
	if prof.Fault != "" {
		p, err := fault.Named(prof.Fault)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		fp = &p
	}
	world := []string{"coding", "pf=" + prof.Name, fmt.Sprintf("tr=%d", tr)}
	sys, env, label, err := transferTestbed(cfg.Seed, world, "scheme="+scheme, fp, traceID, o)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if prof.Traffic != "" {
		tp, err := traffic.Named(prof.Traffic)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		sys.Traffic, err = traffic.NewGenerator(tp, label("traffic"))
		if err != nil {
			return nil, nil, nil, nil, err
		}
		sys.Traffic.Obs = o
	}
	payload := stats.RandomBytes(stats.NewRNG(label("payload")), cfg.PayloadBytes)
	return sys, env, payload, label, nil
}

// transferTestbed builds the LoS deployment one transfer of a sweep runs
// in, at the labeled world path: the environment and, when fp is
// non-nil, a fault injector, both stamped with the trace identity (o,
// traceID, the world path plus variant). The variant — the scheme or
// mode under comparison — never enters the seed tree, so every variant
// of a world sees the same channel. label derives the world's leaf seeds.
func transferTestbed(seed int64, world []string, variant string, fp *fault.Profile, traceID int, o *obs.Observer) (*core.System, *channel.Environment, func(string) int64, error) {
	label := func(leaf string) int64 {
		return stats.SubSeed(seed, append(append([]string(nil), world...), leaf)...)
	}
	sys, env, err := LoSTestbed(2, label("env"))
	if err != nil {
		return nil, nil, nil, err
	}
	sys.Obs, sys.TraceID, sys.TraceLabels = o, traceID, strings.Join(world, "/")+"/"+variant
	if fp != nil {
		if sys.Faults, err = fault.NewInjector(*fp, label("fault")); err != nil {
			return nil, nil, nil, err
		}
		sys.Faults.Obs, sys.Faults.TraceID, sys.Faults.TraceLabels = o, traceID, sys.TraceLabels
	}
	return sys, env, label, nil
}

// Render prints the sweep table.
func (r *AdaptiveCodingResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Adaptive coding: %d-byte transfers, %d per profile×scheme (fault+traffic composed)\n",
		r.PayloadBytes, r.Transfers)
	fmt.Fprintf(&b, "%-11s %-9s %-9s %-13s %-10s %-9s %-9s %-8s %s\n",
		"Profile", "Scheme", "Delivery", "Goodput Kbps", "Overhead", "Rounds", "Frames", "Decodes", "Resizes")
	for _, pt := range r.Points {
		for _, c := range pt.Cells {
			fmt.Fprintf(&b, "%-11s %-9s %-9.2f %-13.2f %-10.1f %-9.1f %-9.1f %-8.1f %.1f\n",
				pt.Profile.Name, c.Scheme, c.Delivery, c.GoodputKbps,
				c.OverheadRatio, c.MeanRounds, c.MeanFrames, c.DecodeAttempts, c.ParityResizes)
		}
	}
	b.WriteString("overhead is on-air subframe-bits per payload bit; energy proxy = rounds × subframes/round\n")
	return b.String()
}

// cell returns the named scheme's cell of a point.
func (p *CodingPoint) cell(scheme string) *CodingCell {
	for i := range p.Cells {
		if p.Cells[i].Scheme == scheme {
			return &p.Cells[i]
		}
	}
	return nil
}

// ShapeChecks asserts the claims CI enforces: every profile ran all three
// schemes; everything delivers on the mild profile; and on at least one
// bursty profile fountain — and, separately, RS — beats plain ARQ on
// goodput or airtime overhead.
func (r *AdaptiveCodingResult) ShapeChecks() error {
	if len(r.Points) < 3 {
		return fmt.Errorf("experiments: coding sweep needs ≥3 profiles, got %d", len(r.Points))
	}
	bursty := 0
	for _, pt := range r.Points {
		if len(pt.Cells) != len(CodingSchemes) {
			return fmt.Errorf("experiments: profile %q ran %d schemes, want %d", pt.Profile.Name, len(pt.Cells), len(CodingSchemes))
		}
		for _, c := range pt.Cells {
			if c.Delivery <= 0 {
				return fmt.Errorf("experiments: scheme %q delivered nothing under profile %q", c.Scheme, pt.Profile.Name)
			}
		}
		if pt.Profile.Bursty {
			bursty++
		}
	}
	if bursty == 0 {
		return fmt.Errorf("experiments: no bursty profile in the sweep")
	}
	mild := r.Points[0]
	for _, c := range mild.Cells {
		if c.Delivery < 0.99 {
			return fmt.Errorf("experiments: scheme %q delivery %v under the mild profile %q", c.Scheme, c.Delivery, mild.Profile.Name)
		}
	}
	beats := func(coded string) bool {
		for _, pt := range r.Points {
			if !pt.Profile.Bursty {
				continue
			}
			arq, c := pt.cell("arq"), pt.cell(coded)
			if arq == nil || c == nil {
				return false
			}
			// A win only counts at comparable delivery.
			if c.Delivery+0.05 < arq.Delivery {
				continue
			}
			if c.GoodputKbps > arq.GoodputKbps || c.OverheadRatio < arq.OverheadRatio {
				return true
			}
		}
		return false
	}
	for _, coded := range []string{"fountain", "rs"} {
		if !beats(coded) {
			return fmt.Errorf("experiments: %s never beat ARQ on goodput or overhead in a bursty profile", coded)
		}
	}
	return nil
}
