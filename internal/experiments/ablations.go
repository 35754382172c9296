package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"witag/internal/channel"
	"witag/internal/core"
	"witag/internal/crypto80211"
	"witag/internal/dot11"
	"witag/internal/obs"
	"witag/internal/sim"
	"witag/internal/stats"
	"witag/internal/tag"
)

// Ablations over the design choices DESIGN.md calls out.
//
// Every ablation compares a handful of configurations in the *same*
// environment: the testbed and tag-data seeds are shared across the
// configurations (labeled per ablation via stats.SubSeed, so no two
// ablations alias) and only the configuration under study varies. The
// runner fans the configurations across workers; each worker builds its
// own copy of the environment, so the comparison stays paired and the
// rows come back in configuration order regardless of scheduling.
//
// The ablations are one ordered table, Ablations. One row function
// (Ablation.row) measures a configuration with an explicit observer, so
// forensic replay looks the name up in the same table and re-runs exactly
// one flagged configuration with a fresh recorder (labels
// "ablation/<name>/cfg=<i>").

// AblationRow is one configuration of any ablation.
type AblationRow struct {
	Label       string
	BER         float64
	RateKbps    float64
	GoodputKbps float64
	Note        string
}

// AblationResult is a titled table.
type AblationResult struct {
	Title string
	Rows  []AblationRow
}

// Render prints the ablation table.
func (r *AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: %s\n", r.Title)
	fmt.Fprintf(&b, "%-34s %-10s %-12s %-14s %s\n", "Configuration", "BER", "rate Kbps", "goodput Kbps", "note")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-34s %-10.4f %-12.1f %-14.1f %s\n",
			row.Label, row.BER, row.RateKbps, row.GoodputKbps, row.Note)
	}
	return b.String()
}

// Ablation is one entry of the ablation table.
type Ablation struct {
	Name   string // label token: seeds "ablation/<Name>", trace labels "ablation/<Name>/cfg=<i>"
	Series string // key of the ablation's table in BENCH_ablations.json

	title string
	tagX  float64 // tag distance from the client on the LoS testbed, m
	// Each configuration measures witag-bench's -rounds/div rounds, or a
	// fixed frame count (FEC framing) that replay takes from here, not
	// from the trace's round events.
	div, frames int
	cfgs        []ablationCfg
	note        func(rs sim.RunStats, sys *core.System) string // nil: no note
	// measure replaces the shared measurement with a custom row body.
	measure func(ctx context.Context, sys *core.System, env *channel.Environment, seed int64, frames, i int) (AblationRow, error)
	check   func(rows []AblationRow) error // the paper's shape claim; nil: none
}

// ablationCfg is one configuration: its row label and how it alters the
// freshly built testbed (nil leaves it as built).
type ablationCfg struct {
	label string
	alter func(sys *core.System) error
}

// each maps a sweep's values to its configurations.
func each[T any](vals []T, cfg func(T) ablationCfg) []ablationCfg {
	out := make([]ablationCfg, len(vals))
	for i, v := range vals {
		out[i] = cfg(v)
	}
	return out
}

// switchStates returns the alteration that signals with the given pair
// of switch states.
func switchStates(rest, flip tag.SwitchState) func(*core.System) error {
	return func(sys *core.System) error {
		sys.Tag.RestState, sys.Tag.FlipState = rest, flip
		return nil
	}
}

// reshapeQuery returns the alteration that splits the aggregate into
// triggers + data subframes.
func reshapeQuery(triggers, data int) func(*core.System) error {
	return func(sys *core.System) error {
		sys.Spec.TriggerLen = triggers
		sys.Spec.DataLen = data
		return sys.Reshape()
	}
}

// withCipher returns the alteration that encrypts the network with mk's
// cipher (nil mk: open).
func withCipher(mk func() (crypto80211.Cipher, error)) func(*core.System) error {
	return func(sys *core.System) error {
		if mk != nil {
			c, err := mk()
			if err != nil {
				return err
			}
			sys.Cipher = c
			sys.Scheduler.Cipher = c
		}
		return sys.Reshape()
	}
}

// Ablations is the ablation table in witag-bench's run order.
var Ablations = []Ablation{
	// §5.2's phase-flip signalling against the naive open/short design,
	// at the worst-case (mid-span) tag position.
	{
		Name: "switch", Series: "switch mode",
		title: "switch design (tag mid-span, the worst case)", tagX: 4, div: 2,
		cfgs: []ablationCfg{
			{"0°/180° phase flip (WiTAG)", switchStates(tag.Phase0, tag.Phase180)},
			{"reflective/non-reflective", switchStates(tag.Short, tag.Open)},
		},
		note: func(sim.RunStats, *core.System) string { return "paper: flip doubles |Δh|" },
		check: func(rows []AblationRow) error {
			if rows[0].BER >= rows[1].BER {
				return fmt.Errorf("experiments: phase flip (BER %v) should beat on/off (BER %v)", rows[0].BER, rows[1].BER)
			}
			return nil
		},
	},
	// Trigger subframes: more improve detection robustness but spend
	// subframes that could carry data (§7 notes the overhead is small
	// against 64-subframe aggregates).
	{
		Name: "trigger", Series: "trigger count",
		title: "trigger subframes per query", tagX: 2, div: 4,
		cfgs: each([]int{2, 4, 8, 16}, func(tl int) ablationCfg {
			return ablationCfg{fmt.Sprintf("%d triggers + %d data subframes", tl, 64-tl), reshapeQuery(tl, 64-tl)}
		}),
		note: func(rs sim.RunStats, _ *core.System) string { return fmt.Sprintf("detection %.2f", rs.DetectionRate) },
		check: func(rows []AblationRow) error {
			if rows[0].RateKbps < rows[len(rows)-1].RateKbps {
				return fmt.Errorf("experiments: trigger overhead should reduce the data rate")
			}
			return nil
		},
	},
	// Raw tag bits against CRC-framed and FEC-framed transfers — the
	// error-handling layer §4.1 leaves to future work. Goodput counts
	// payload bits delivered in verified frames per second.
	{
		Name: "fec", Series: "FEC framing",
		title: "tag-data framing and FEC (tag at 2 m, BER ≈ 0.5%)", tagX: 2, frames: 6,
		cfgs:    []ablationCfg{{label: "raw CRC-16 framing"}, {label: "SECDED(8,4) FEC"}, {label: "SECDED + depth-12 interleaver"}},
		measure: fecRow,
	},
	// Aggregate size at the default MCS.
	{
		Name: "ampdu", Series: "A-MPDU size",
		title: "A-MPDU size", tagX: 2, div: 4,
		cfgs: each([]int{8, 16, 32, 64}, func(total int) ablationCfg {
			return ablationCfg{fmt.Sprintf("%d subframes", total), reshapeQuery(4, total-4)}
		}),
		check: func(rows []AblationRow) error {
			if rows[len(rows)-1].RateKbps <= rows[0].RateKbps {
				return fmt.Errorf("experiments: aggregation should amortise overhead")
			}
			return nil
		},
	},
	// The query MCS: too aggressive a rate confuses path-loss failures
	// with tag zeros (§4.1's robust-rate rule).
	{
		Name: "mcs", Series: "robust rate",
		title: "query MCS (robust-rate rule)", tagX: 2, div: 4,
		cfgs: each([]int{0, 2, 4, 7}, func(idx int) ablationCfg {
			return ablationCfg{fmt.Sprintf("MCS%d", idx), func(sys *core.System) error {
				m, err := dot11.HTMCS(idx)
				if err != nil {
					return err
				}
				sys.Spec.MCS = m
				return sys.Reshape()
			}}
		}),
		note: func(rs sim.RunStats, _ *core.System) string {
			if rs.BER > 0.3 {
				return "modulation too robust: the tag cannot corrupt it"
			}
			return ""
		},
	},
	// The near-client deployment on open, WEP and WPA2 networks — §4's
	// transparency claim as a table.
	{
		Name: "crypto", Series: "encryption",
		title: "encryption transparency", tagX: 1, div: 4,
		cfgs: []ablationCfg{
			{"open", withCipher(nil)},
			{"WEP-104", withCipher(func() (crypto80211.Cipher, error) { return crypto80211.NewWEP(make([]byte, 13), 0) })},
			{"WPA2-CCMP", withCipher(func() (crypto80211.Cipher, error) {
				return crypto80211.NewCCMP(make([]byte, 16), [6]byte{2, 0, 0, 0, 0, 0x10}, 0)
			})},
		},
		note: func(_ sim.RunStats, sys *core.System) string {
			return fmt.Sprintf("%d-tick subframes", sys.Spec.TicksPerSubframe)
		},
		// Encryption does not raise BER (it may cost rate via longer
		// subframes).
		check: func(rows []AblationRow) error {
			for _, row := range rows[1:] {
				if row.BER > rows[0].BER+0.02 {
					return fmt.Errorf("experiments: %s BER %v far above open %v", row.Label, row.BER, rows[0].BER)
				}
			}
			return nil
		},
	},
}

// ablationByName looks name up in the table.
func ablationByName(name string) (*Ablation, error) {
	for i := range Ablations {
		if Ablations[i].Name == name {
			return &Ablations[i], nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown ablation %q", name)
}

// RunAblation runs the named ablation at witag-bench's -rounds scale on
// workers (<= 0 means runtime.NumCPU()) and checks its shape claim.
func RunAblation(ctx context.Context, name string, seed int64, rounds, workers int) (*AblationResult, error) {
	a, err := ablationByName(name)
	if err != nil {
		return nil, err
	}
	n := a.frames
	if n == 0 {
		n = rounds / a.div
	}
	rows, err := sim.Map(ctx, simRunner(workers), len(a.cfgs), func(ctx context.Context, i int) (AblationRow, error) {
		return a.row(ctx, seed, n, i, currentObserver())
	})
	if err != nil {
		return nil, err
	}
	if a.check != nil {
		if err := a.check(rows); err != nil {
			return nil, err
		}
	}
	return &AblationResult{Title: a.title, Rows: rows}, nil
}

// row measures configuration i over n rounds (frames, for FEC) in a fresh
// copy of the ablation's testbed, reporting into o.
func (a *Ablation) row(ctx context.Context, seed int64, n, i int, o *obs.Observer) (AblationRow, error) {
	if i < 0 || i >= len(a.cfgs) {
		return AblationRow{}, fmt.Errorf("experiments: %s config %d outside [0,%d)", a.Name, i, len(a.cfgs))
	}
	label := "ablation/" + a.Name
	cfg := a.cfgs[i]
	sys, env, err := LoSTestbed(a.tagX, stats.SubSeed(seed, label))
	if err != nil {
		return AblationRow{}, err
	}
	sys.Obs, sys.TraceID, sys.TraceLabels = o, i, fmt.Sprintf("%s/cfg=%d", label, i)
	if cfg.alter != nil {
		if err := cfg.alter(sys); err != nil {
			return AblationRow{}, err
		}
	}
	if a.measure != nil {
		row, err := a.measure(ctx, sys, env, seed, n, i)
		row.Label = cfg.label
		return row, err
	}
	rs, err := sim.MeasureRun(ctx, sys, env, n, stats.SubSeed(seed, label, "data"))
	if err != nil {
		return AblationRow{}, err
	}
	rate, err := sys.TagRateBps()
	if err != nil {
		return AblationRow{}, err
	}
	row := AblationRow{
		Label: cfg.label, BER: rs.BER, RateKbps: rate / 1e3,
		GoodputKbps: rate / 1e3 * (1 - rs.BER),
	}
	if a.note != nil {
		row.Note = a.note(rs, sys)
	}
	return row, nil
}

// fecCodecs are the FEC ablation's configurations, in table order.
var fecCodecs = []core.Codec{{}, {FEC: true}, {FEC: true, InterleaveDepth: 12}}

// fecRow transfers the same payload sequence of frames frames with codec
// i, each frame over as many rounds as its encoded bits need, and decodes
// what arrives — erased rounds included.
func fecRow(ctx context.Context, sys *core.System, env *channel.Environment, seed int64, frames, i int) (AblationRow, error) {
	const payloadBytes = 16
	codec := fecCodecs[i]
	rng := stats.NewRNG(stats.SubSeed(seed, "ablation/fec", "payload"))
	delivered, rounds := 0, 0
	var airtime time.Duration
	var berSum float64
	for f := 0; f < frames; f++ {
		if err := ctx.Err(); err != nil {
			return AblationRow{}, err
		}
		payload := stats.RandomBytes(rng, payloadBytes)
		bits, err := codec.Encode(payload)
		if err != nil {
			return AblationRow{}, err
		}
		var rx []byte
		for off := 0; off < len(bits); off += sys.Spec.DataLen {
			end := min(off+sys.Spec.DataLen, len(bits))
			env.Advance(0.05)
			res, err := sys.QueryRound(bits[off:end])
			if err != nil {
				return AblationRow{}, err
			}
			rx = append(rx, res.RxBits[:end-off]...)
			airtime += res.Airtime
			berSum += res.BER()
			rounds++
		}
		got, _, err := codec.Decode(rx)
		if err == nil && string(got) == string(payload) {
			delivered++
		}
	}
	rate, err := sys.TagRateBps()
	if err != nil {
		return AblationRow{}, err
	}
	expansion := float64(codec.EncodedBits(payloadBytes)) / float64(payloadBytes*8)
	return AblationRow{
		BER:         berSum / float64(rounds),
		RateKbps:    rate / 1e3,
		GoodputKbps: float64(delivered*payloadBytes*8) / airtime.Seconds() / 1e3,
		Note:        fmt.Sprintf("%d/%d frames verified, %.1fx coding expansion", delivered, frames, expansion),
	}, nil
}
