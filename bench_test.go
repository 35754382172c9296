// Package witag's repository-root benchmarks regenerate every table and
// figure of the paper (one benchmark per experiment — see DESIGN.md's
// per-experiment index) and measure the hot paths of the substrate.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The figure benchmarks print their tables once (on the first iteration)
// and report domain metrics (BER, Kbps) via b.ReportMetric, so `go test
// -bench` output doubles as the reproduction record in EXPERIMENTS.md.
package witag_test

import (
	"sync"
	"testing"

	"witag/internal/channel"
	"witag/internal/core"
	"witag/internal/dot11"
	"witag/internal/experiments"
	"witag/internal/phy"
	"witag/internal/stats"
)

// printOnce gates table output so -benchtime iterations don't spam.
var printOnce sync.Map

func once(b *testing.B, key, table string) {
	b.Helper()
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		b.Log("\n" + table)
	}
}

// --- Paper figures and sections ---

func BenchmarkFigure5BERAndThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(experiments.Figure5Config{Seed: 42, Runs: 2, Round: 300})
		if err != nil {
			b.Fatal(err)
		}
		if err := res.ShapeChecks(); err != nil {
			b.Fatal(err)
		}
		once(b, "fig5", res.Render())
		b.ReportMetric(res.Points[0].BER, "BER@1m")
		b.ReportMetric(res.Points[3].BER, "BER@4m")
		b.ReportMetric(res.RawRateKbps, "Kbps")
	}
}

func BenchmarkFigure6NLoSCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.Figure6Config{Seed: 11, Runs: 30, Round: 150}
		a, err := experiments.Figure6(experiments.LocationA, cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Seed = 12
		loc, err := experiments.Figure6(experiments.LocationB, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.CheckFigure6Shape(a, loc); err != nil {
			b.Fatal(err)
		}
		once(b, "fig6", a.Render()+"\n"+loc.Render())
		b.ReportMetric(a.P90, "p90-A")
		b.ReportMetric(loc.P90, "p90-B")
	}
}

func BenchmarkFigure3ChannelChange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3(9)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.ShapeChecks(); err != nil {
			b.Fatal(err)
		}
		once(b, "fig3", res.Render())
		b.ReportMetric(res.Points[2].FlipDeltaDb-res.Points[2].OnOffDeltaDb, "dB-gain")
	}
}

func BenchmarkSection41ThroughputSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Section41Sweep()
		if err != nil {
			b.Fatal(err)
		}
		if err := res.ShapeChecks(); err != nil {
			b.Fatal(err)
		}
		once(b, "s41", res.Render())
		best, err := res.Best()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(best.TagRateKbps, "Kbps")
	}
}

func BenchmarkPriorSystemComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.PriorSystemComparison(5)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.ShapeChecks(); err != nil {
			b.Fatal(err)
		}
		once(b, "compare", res.Render())
		b.ReportMetric(res.MeasuredRateKbps, "Kbps")
	}
}

func BenchmarkSection7PowerModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Section7Power(5)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.ShapeChecks(); err != nil {
			b.Fatal(err)
		}
		once(b, "power", res.Render())
		b.ReportMetric(res.Rows[0].PowerW*1e6, "µW-WiTAG")
	}
}

func BenchmarkEncryptionTransparency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationEncryption(16, 120)
		if err != nil {
			b.Fatal(err)
		}
		once(b, "encryption", res.Render())
		b.ReportMetric(res.Rows[2].BER, "BER-CCMP")
	}
}

// --- Ablations ---

func BenchmarkAblationSwitchMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationSwitchMode(11, 200)
		if err != nil {
			b.Fatal(err)
		}
		once(b, "ab-switch", res.Render())
		b.ReportMetric(res.Rows[1].BER-res.Rows[0].BER, "BER-penalty")
	}
}

func BenchmarkAblationTriggerCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationTriggerCount(12, 100)
		if err != nil {
			b.Fatal(err)
		}
		once(b, "ab-trigger", res.Render())
	}
}

func BenchmarkAblationFEC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationFEC(13, 5)
		if err != nil {
			b.Fatal(err)
		}
		once(b, "ab-fec", res.Render())
	}
}

func BenchmarkAblationAMPDUSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationAMPDUSize(14, 100)
		if err != nil {
			b.Fatal(err)
		}
		once(b, "ab-ampdu", res.Render())
	}
}

func BenchmarkAblationRobustRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationRobustRate(15, 100)
		if err != nil {
			b.Fatal(err)
		}
		once(b, "ab-rate", res.Render())
	}
}

// --- Substrate hot paths ---

func BenchmarkQueryRound(b *testing.B) {
	env := channel.NewEnvironment(1)
	env.AddReflector(channel.Point{X: 4, Y: 3.5}, 60)
	env.AddScatterers(4, 0, -3, 8, 3, 15, 1.0)
	sys, err := core.NewSystem(env,
		channel.Point{X: 0, Y: 0}, channel.Point{X: 8, Y: 0},
		channel.Point{X: 2, Y: 0.3}, experiments.TagGain, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(2)
	bits := stats.RandomBits(rng, sys.Spec.DataLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.QueryRound(bits); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOFDMTransmit(b *testing.B) {
	cfg := phy.DefaultConfig()
	psdu := stats.RandomBytes(stats.NewRNG(3), 1500)
	b.SetBytes(1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := phy.Transmit(psdu, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOFDMReceive(b *testing.B) {
	cfg := phy.DefaultConfig()
	psdu := stats.RandomBytes(stats.NewRNG(4), 1500)
	wf, err := phy.Transmit(psdu, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rx := phy.ApplyChannel(wf, func(sym, sc int) complex128 { return 1 }, 1/phy.SNRFromDb(20), stats.NewRNG(5))
	csi, err := phy.EstimateCSI(rx.LTF)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := phy.Receive(rx, csi, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkViterbiDecode(b *testing.B) {
	rng := stats.NewRNG(6)
	data := stats.RandomBits(rng, 4096)
	coded := phy.ConvEncode(append(data, make([]byte, 6)...))
	b.SetBytes(int64(len(data)) / 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := phy.ViterbiDecode(coded); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkViterbiDecodeSoft(b *testing.B) {
	rng := stats.NewRNG(6)
	data := stats.RandomBits(rng, 4096)
	coded := phy.ConvEncode(append(data, make([]byte, 6)...))
	llr := make([]float64, len(coded))
	for i, c := range coded {
		llr[i] = 1 - 2*float64(c) + 0.5*rng.NormFloat64()
	}
	b.SetBytes(int64(len(data)) / 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := phy.ViterbiDecodeSoft(llr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBitTrueChain times one round of the bit-true PHY as the
// bittrue_phy benchmark workload defines it: a 40-byte PSDU through
// Transmit → ApplyChannel → EstimateCSI → hard-decision Receive on a flat
// noisy channel, cycling HT MCS 0–7 from op to op.
func BenchmarkBitTrueChain(b *testing.B) {
	var cfgs [8]phy.Config
	for m := range cfgs {
		mcs, err := dot11.HTMCS(m)
		if err != nil {
			b.Fatal(err)
		}
		cfgs[m] = phy.DefaultConfig()
		cfgs[m].MCS = mcs
	}
	flat := func(sym, sc int) complex128 { return 1 }
	noiseVar := 1 / phy.SNRFromDb(30)
	rng := stats.NewRNG(8)
	psdu := stats.RandomBytes(rng, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wf, err := phy.Transmit(psdu, cfgs[i%len(cfgs)])
		if err != nil {
			b.Fatal(err)
		}
		rx := phy.ApplyChannel(wf, flat, noiseVar, rng)
		csi, err := phy.EstimateCSI(rx.LTF)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := phy.Receive(rx, csi, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAMPDUMarshalDeaggregate(b *testing.B) {
	var mpdus [][]byte
	for i := 0; i < 64; i++ {
		f := &dot11.QoSDataFrame{
			FC:     dot11.FrameControl{Type: dot11.TypeQoSNull, ToDS: true},
			Addr1:  dot11.MACAddr{2, 0, 0, 0, 0, 1},
			Addr2:  dot11.MACAddr{2, 0, 0, 0, 0, 2},
			SeqNum: uint16(i),
		}
		w, err := f.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		mpdus = append(mpdus, w)
	}
	agg, err := dot11.Aggregate(mpdus)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		psdu, err := agg.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dot11.Deaggregate(psdu); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChannelEvaluation(b *testing.B) {
	env := channel.NewEnvironment(7)
	env.AddReflector(channel.Point{X: 4, Y: 3.5}, 60)
	env.AddReflector(channel.Point{X: 4, Y: -3.5}, 60)
	env.AddScatterers(4, 0, -3, 8, 3, 15, 1.0)
	tagRef := &channel.TagReflection{Pos: channel.Point{X: 2, Y: 0.3}, Coeff: 68}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Channel(channel.Point{X: 0, Y: 0}, channel.Point{X: 8, Y: 0}, tagRef); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecFECEncodeDecode(b *testing.B) {
	codec := core.Codec{FEC: true, InterleaveDepth: 12}
	payload := stats.RandomBytes(stats.NewRNG(8), 64)
	b.SetBytes(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bits, err := codec.Encode(payload)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := codec.Decode(bits); err != nil {
			b.Fatal(err)
		}
	}
}
