package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"

	"witag/internal/channel"
	"witag/internal/coding"
	"witag/internal/core"
	"witag/internal/experiments"
	"witag/internal/fault"
	"witag/internal/link"
	"witag/internal/sim"
	"witag/internal/stats"
	"witag/internal/traffic"
)

// --- coding_mix: the adaptive-coding sweep, two workers. ---

func codingConfig(seed int64, workers int) experiments.AdaptiveCodingConfig {
	cfg := experiments.DefaultAdaptiveCodingConfig()
	cfg.Seed, cfg.Transfers, cfg.Workers = seed, codingTransfers, workers
	return cfg
}

func runCoding(ctx context.Context, seed int64, workers int) (outcome, error) {
	cfg := codingConfig(seed, workers)
	res, err := experiments.AdaptiveCodingCtx(ctx, cfg)
	if err != nil {
		return outcome{}, err
	}
	d, err := digest(res)
	if err != nil {
		return outcome{}, err
	}
	var cells [][2]int
	for _, pt := range res.Points {
		for _, c := range pt.Cells {
			n := float64(cfg.Transfers)
			cells = append(cells, [2]int{int(math.Round(c.MeanRounds * n)), int(math.Round(c.Delivery * n))})
		}
	}
	o := codingOutcome(cfg, cells)
	o.digest, o.checkErr = d, res.ShapeChecks()
	return o, nil
}

// codingOutcome renders per-(profile, scheme) {rounds, delivered} counts,
// in sweep order, as the comparable form of a coding sweep.
func codingOutcome(cfg experiments.AdaptiveCodingConfig, cells [][2]int) outcome {
	var b strings.Builder
	o := outcome{}
	for i, c := range cells {
		prof := cfg.Profiles[i/len(experiments.CodingSchemes)].Name
		scheme := experiments.CodingSchemes[i%len(experiments.CodingSchemes)]
		fmt.Fprintf(&b, "%s/%s rounds=%d delivered=%d\n", prof, scheme, c[0], c[1])
		o.rounds += c[0]
	}
	o.counts = b.String()
	return o
}

func warmCoding(ctx context.Context) error {
	cfg := codingConfig(warmSeed, 1)
	// One short transfer per scheme on the calmest profile that still has
	// faults and traffic.
	cfg.Transfers, cfg.PayloadBytes = 1, 12
	cfg.Profiles = cfg.Profiles[:1]
	_, err := experiments.AdaptiveCodingCtx(ctx, cfg)
	return err
}

// tracedCoding runs every transfer of the sweep on the same labeled
// worlds AdaptiveCodingCtx builds, timing each Send. The transferers call
// QueryRound internally, so the round-level layers are measured on a
// shadow replay: a second copy of the transfer's world driven for the
// same number of rounds with spans and probes.
func tracedCoding(ctx context.Context, seed int64, workers int, p *pass) (outcome, error) {
	cfg := codingConfig(seed, workers)
	schemes := experiments.CodingSchemes
	perProfile := len(schemes) * cfg.Transfers
	xfers, err := sim.Map(ctx, sim.Runner{Workers: workers}, len(cfg.Profiles)*perProfile, func(ctx context.Context, i int) (transfer, error) {
		prof := cfg.Profiles[i/perProfile]
		scheme := schemes[i%perProfile/cfg.Transfers]
		return tracedTransfer(ctx, p.recorder(), cfg, prof, scheme, i%cfg.Transfers)
	})
	if err != nil {
		return outcome{}, err
	}
	cells := make([][2]int, len(cfg.Profiles)*len(schemes))
	for i, x := range xfers {
		c := &cells[i/cfg.Transfers]
		c[0] += x.rounds
		if x.delivered {
			c[1]++
		}
	}
	return codingOutcome(cfg, cells), nil
}

type transfer struct {
	rounds    int
	delivered bool
}

// codingWorld is one (profile, transfer) world of the sweep.
type codingWorld struct {
	sys     *core.System
	env     *channel.Environment
	payload []byte
	label   func(leaf string) int64
}

// newCodingWorld builds the world AdaptiveCodingCtx builds for (prof,
// tr): the testbed, its fault and traffic streams and the payload, each
// from its labeled seed. The scheme never enters the seed tree.
func newCodingWorld(cfg experiments.AdaptiveCodingConfig, prof experiments.CodingProfile, tr int) (codingWorld, error) {
	world := []string{"coding", "pf=" + prof.Name, fmt.Sprintf("tr=%d", tr)}
	w := codingWorld{label: func(leaf string) int64 {
		return stats.SubSeed(cfg.Seed, append(append([]string(nil), world...), leaf)...)
	}}
	var err error
	if w.sys, w.env, err = experiments.LoSTestbed(2, w.label("env")); err != nil {
		return w, err
	}
	sh, err := newStreams(prof, w.label)
	if err != nil {
		return w, err
	}
	w.sys.Faults, w.sys.Traffic = sh.faults, sh.traffic
	w.payload = stats.RandomBytes(stats.NewRNG(w.label("payload")), cfg.PayloadBytes)
	return w, nil
}

// newStreams builds a profile's fault injector and traffic generator
// from the world's labeled seeds.
func newStreams(prof experiments.CodingProfile, label func(string) int64) (streams, error) {
	var sh streams
	if prof.Fault != "" {
		fp, err := fault.Named(prof.Fault)
		if err != nil {
			return sh, err
		}
		if sh.faults, err = fault.NewInjector(fp, label("fault")); err != nil {
			return sh, err
		}
	}
	if prof.Traffic != "" {
		tp, err := traffic.Named(prof.Traffic)
		if err != nil {
			return sh, err
		}
		if sh.traffic, err = traffic.NewGenerator(tp, label("traffic")); err != nil {
			return sh, err
		}
	}
	return sh, nil
}

func tracedTransfer(ctx context.Context, rec *recorder, cfg experiments.AdaptiveCodingConfig, prof experiments.CodingProfile, scheme string, tr int) (transfer, error) {
	trial := rec.begin(lTrial, -1)
	sp := rec.begin(lBuild, trial)
	w, err := newCodingWorld(cfg, prof, tr)
	rec.end(sp, 1)
	if err != nil {
		return transfer{}, err
	}

	var x transfer
	var received []byte
	switch scheme {
	case "arq":
		cc, err := link.NewCodingController(0)
		if err != nil {
			return x, err
		}
		t := link.NewTransferer(w.sys, w.env, link.DefaultPolicy(), cc, w.label("xfer"))
		sp = rec.begin(lLinkSend, trial)
		st, err := t.Send(ctx, w.payload)
		rec.end(sp, 1)
		if err != nil {
			return x, err
		}
		x, received = transfer{st.Rounds, st.Delivered}, st.Received
		rec.count(cLinkRounds, float64(st.Rounds))
		rec.count(cLinkFramesSent, float64(st.FramesSent))
		rec.count(cLinkFramesOK, float64(st.FramesSent-st.RoundFailures-st.DesyncErrors-st.ResidualErrors))
	case "fountain", "rs":
		var st *coding.Stats
		if scheme == "fountain" {
			t := coding.NewFountainTransferer(w.sys, w.env, coding.DefaultFountainConfig(), w.label("xfer"))
			sp = rec.begin(lFountainSend, trial)
			st, err = t.Send(ctx, w.payload)
		} else {
			t := coding.NewRSTransferer(w.sys, w.env, coding.DefaultRSConfig(), w.label("xfer"))
			sp = rec.begin(lRSSend, trial)
			st, err = t.Send(ctx, w.payload)
		}
		rec.end(sp, 1)
		if err != nil {
			return x, err
		}
		x, received = transfer{st.Rounds, st.Delivered}, st.Received
		rec.count(cDecodeAttempts, float64(st.DecodeAttempts))
		if st.Delivered {
			rec.count(cDecodeOK, 1)
		}
	default:
		return x, fmt.Errorf("perfbench: unknown coding scheme %q", scheme)
	}
	if x.delivered && !bytes.Equal(received, w.payload) {
		return x, fmt.Errorf("perfbench: %s delivered a corrupted payload at pf=%s tr=%d", scheme, prof.Name, tr)
	}

	if rec != nil {
		if err := codingProbes(rec, trial, w, scheme); err != nil {
			return x, err
		}
		shadow, err := newCodingWorld(cfg, prof, tr)
		if err != nil {
			return x, err
		}
		sh, err := newStreams(prof, w.label)
		if err != nil {
			return x, err
		}
		if _, err := tracedRounds(ctx, rec, trial, shadow.sys, shadow.env, x.rounds, w.label("bits"), sh); err != nil {
			return x, err
		}
	}
	rec.end(trial, 1)
	return x, nil
}

// codingProbes times the framing codec on the transfer's payload, cut
// into the source blocks the fountain scheme carries behind its 2-byte
// header, plus the scheme's own erasure code on the same payload. Block
// and shard sizes are the transferers' defaults.
func codingProbes(rec *recorder, parent int32, w codingWorld, scheme string) error {
	chunk := coding.DefaultFountainConfig().BlockBytes
	codec := coding.DefaultCodec()
	var frames [][]byte
	for off := 0; off < len(w.payload); off += chunk {
		frames = append(frames, append([]byte{0, byte(off / chunk)}, w.payload[off:min(off+chunk, len(w.payload))]...))
	}
	encoded := make([][]byte, len(frames))
	sp := rec.begin(lCodecEncode, parent)
	for i, f := range frames {
		var err error
		if encoded[i], err = codec.Encode(f); err != nil {
			return err
		}
	}
	rec.end(sp, len(frames))
	sp = rec.begin(lCodecDecode, parent)
	for _, bits := range encoded {
		if _, _, err := codec.Decode(bits); err != nil {
			return err
		}
	}
	rec.end(sp, len(frames))

	switch scheme {
	case "rs":
		return rsProbe(rec, parent, w.payload)
	case "fountain":
		return fountainProbe(rec, parent, w, chunk)
	}
	return nil
}

// rsProbe computes the parity of one block of the payload's data shards
// (the RS transferer's default shard size and count) and rebuilds as many
// erased data shards as it has parity shards. The parity count, half the
// data shards, is the probe's own choice: the transferer sizes parity per
// block from its loss estimate.
func rsProbe(rec *recorder, parent int32, payload []byte) error {
	cfg := coding.DefaultRSConfig()
	k, m := cfg.DataShards, cfg.DataShards/2
	code, err := coding.NewRS(k, m)
	if err != nil {
		return err
	}
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, cfg.ShardBytes)
		if off := i * cfg.ShardBytes; off < len(payload) {
			copy(data[i], payload[off:])
		}
	}
	sp := rec.begin(lRSParity, parent)
	parity, err := code.Parity(data)
	rec.end(sp, 1)
	if err != nil {
		return err
	}
	shards := append(append([][]byte(nil), data...), parity...)
	for i := 0; i < m; i++ {
		shards[2*i] = nil
	}
	sp = rec.begin(lRSReconstruct, parent)
	err = code.Reconstruct(shards)
	rec.end(sp, 1)
	for i := 0; err == nil && i < k; i++ {
		if !bytes.Equal(shards[i], data[i]) {
			err = fmt.Errorf("perfbench: RS probe reconstructed a wrong shard")
		}
	}
	return err
}

// fountainProbe feeds the transfer's own LT symbol stream (same seed as
// its transferer) into a fresh decoder until it completes.
func fountainProbe(rec *recorder, parent int32, w codingWorld, blockBytes int) error {
	f, err := coding.NewFountain(len(w.payload), blockBytes, stats.SubSeed(w.label("xfer"), "sym"))
	if err != nil {
		return err
	}
	dec := coding.NewFountainDecoder(f)
	for id := 0; !dec.Done(); id++ {
		if id >= 16*f.K+64 {
			return fmt.Errorf("perfbench: fountain probe did not decode in %d symbols", id)
		}
		sym, err := f.Symbol(w.payload, id)
		if err != nil {
			return err
		}
		sp := rec.begin(lFountainAdd, parent)
		_, err = dec.Add(id, sym)
		rec.end(sp, 1)
		if err != nil {
			return err
		}
	}
	got, err := dec.Payload()
	if err == nil && !bytes.Equal(got, w.payload) {
		err = fmt.Errorf("perfbench: fountain probe decoded a wrong payload")
	}
	return err
}
