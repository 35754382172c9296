package phy

import (
	"bytes"
	"math"
	"math/cmplx"
	"testing"

	"witag/internal/bitio"
	"witag/internal/dot11"
	"witag/internal/stats"
)

func flatChannel(sym, sc int) complex128 { return 1 }

// multipathChannel returns a static frequency-selective channel: a unit
// direct path plus one reflector with delay-induced phase ramp.
func multipathChannel(amp, delaySlope float64) ChannelFunc {
	return func(sym, sc int) complex128 {
		return 1 + complex(amp, 0)*cmplx.Exp(complex(0, delaySlope*float64(sc)))
	}
}

func cfgWithMCS(t *testing.T, idx int) Config {
	t.Helper()
	cfg := DefaultConfig()
	mcs, err := dot11.HTMCS(idx)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MCS = mcs
	return cfg
}

func TestLayoutFor(t *testing.T) {
	l, err := LayoutFor(dot11.Width20)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumData != 52 || l.NumPilot != 4 || l.NumUsed() != 56 {
		t.Fatalf("layout = %+v", l)
	}
	if len(l.PilotIdx) != 4 || len(l.dataIdx) != 52 {
		t.Fatal("index tables wrong size")
	}
	seen := map[int]bool{}
	for _, p := range l.PilotIdx {
		if p < 0 || p >= 56 || seen[p] {
			t.Fatalf("bad pilot index %d", p)
		}
		seen[p] = true
	}
	if _, err := LayoutFor(dot11.ChannelWidth(7)); err == nil {
		t.Fatal("bad width accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ScramblerSeed = 0
	if _, err := Transmit([]byte{1}, cfg); err == nil {
		t.Fatal("seed 0 accepted")
	}
	cfg = DefaultConfig()
	cfg.LTFRepeats = 0
	if _, err := Transmit([]byte{1}, cfg); err == nil {
		t.Fatal("0 LTFs accepted")
	}
	cfg = DefaultConfig()
	mcs, _ := dot11.HTMCS(10) // 2 streams
	cfg.MCS = mcs
	if _, err := Transmit([]byte{1}, cfg); err == nil {
		t.Fatal("multi-stream MCS accepted by bit-true chain")
	}
}

func TestTransmitSymbolCount(t *testing.T) {
	cfg := cfgWithMCS(t, 0) // 26 data bits/symbol
	psdu := make([]byte, 100)
	wf, err := Transmit(psdu, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(wf.Symbols) != cfg.NumSymbols(100) {
		t.Fatalf("symbols = %d, want %d", len(wf.Symbols), cfg.NumSymbols(100))
	}
	if len(wf.LTF) != cfg.LTFRepeats {
		t.Fatalf("LTFs = %d", len(wf.LTF))
	}
	for _, sym := range wf.Symbols {
		if len(sym) != wf.Layout.NumUsed() {
			t.Fatal("symbol width mismatch")
		}
	}
}

func TestSymbolOfPSDUByte(t *testing.T) {
	cfg := cfgWithMCS(t, 0)                   // 26 bits/symbol
	if s := cfg.SymbolOfPSDUByte(0); s != 0 { // bit 16 of 26
		t.Fatalf("byte 0 → symbol %d", s)
	}
	if s := cfg.SymbolOfPSDUByte(2); s != 1 { // bit 32
		t.Fatalf("byte 2 → symbol %d", s)
	}
}

func TestRoundTripNoiselessAllMCS(t *testing.T) {
	rng := stats.NewRNG(20)
	for idx := 0; idx <= 7; idx++ {
		cfg := cfgWithMCS(t, idx)
		psdu := stats.RandomBytes(rng, 300)
		wf, err := Transmit(psdu, cfg)
		if err != nil {
			t.Fatalf("MCS%d: %v", idx, err)
		}
		rx := ApplyChannel(wf, flatChannel, 0, nil)
		csi, err := EstimateCSI(rx.LTF)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Receive(rx, csi, false)
		if err != nil {
			t.Fatalf("MCS%d: %v", idx, err)
		}
		if !bytes.Equal(res.PSDU, psdu) {
			t.Fatalf("MCS%d: PSDU mismatch", idx)
		}
		if res.ScramblerSeed != cfg.ScramblerSeed {
			t.Fatalf("MCS%d: recovered seed %d", idx, res.ScramblerSeed)
		}
		if res.CodedBitErrs != 0 {
			t.Fatalf("MCS%d: %d coded bit errors on clean channel", idx, res.CodedBitErrs)
		}
	}
}

func TestRoundTripMultipathChannel(t *testing.T) {
	rng := stats.NewRNG(21)
	cfg := cfgWithMCS(t, 4) // 16-QAM 3/4
	psdu := stats.RandomBytes(rng, 400)
	wf, err := Transmit(psdu, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Strong frequency-selective channel: CSI estimation must absorb it.
	rx := ApplyChannel(wf, multipathChannel(0.5, 0.35), 0, nil)
	csi, _ := EstimateCSI(rx.LTF)
	res, err := Receive(rx, csi, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.PSDU, psdu) {
		t.Fatal("multipath round trip failed")
	}
}

func TestRoundTripWithNoiseHardAndSoft(t *testing.T) {
	rng := stats.NewRNG(22)
	cfg := cfgWithMCS(t, 2) // QPSK 3/4 — the robust query rate
	psdu := stats.RandomBytes(rng, 300)
	wf, _ := Transmit(psdu, cfg)
	// SNR = 15 dB: comfortably above QPSK-3/4's waterfall.
	noiseVar := 1 / SNRFromDb(15)
	for _, soft := range []bool{false, true} {
		rx := ApplyChannel(wf, flatChannel, noiseVar, stats.NewRNG(100))
		csi, _ := EstimateCSI(rx.LTF)
		res, err := Receive(rx, csi, soft)
		if err != nil {
			t.Fatalf("soft=%v: %v", soft, err)
		}
		if !bytes.Equal(res.PSDU, psdu) {
			t.Fatalf("soft=%v: decode failed at 15 dB", soft)
		}
	}
}

func TestSoftOutperformsHardNearWaterfall(t *testing.T) {
	// At an SNR where hard decisions start failing, soft decisions should
	// produce no more PSDU errors over several trials.
	cfg := cfgWithMCS(t, 4) // 16-QAM 3/4
	rng := stats.NewRNG(23)
	noiseVar := 1 / SNRFromDb(13.5)
	hardErrs, softErrs := 0, 0
	for trial := 0; trial < 12; trial++ {
		psdu := stats.RandomBytes(rng, 200)
		wf, _ := Transmit(psdu, cfg)
		noiseRng := stats.NewRNG(int64(trial) + 500)
		rx := ApplyChannel(wf, flatChannel, noiseVar, noiseRng)
		csi, _ := EstimateCSI(rx.LTF)
		resH, err := Receive(rx, csi, false)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resH.PSDU, psdu) {
			hardErrs++
		}
		// Same noise realisation for a paired comparison.
		noiseRng = stats.NewRNG(int64(trial) + 500)
		rx = ApplyChannel(wf, flatChannel, noiseVar, noiseRng)
		csi, _ = EstimateCSI(rx.LTF)
		resS, err := Receive(rx, csi, true)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resS.PSDU, psdu) {
			softErrs++
		}
	}
	if softErrs > hardErrs {
		t.Fatalf("soft decisions (%d errors) worse than hard (%d)", softErrs, hardErrs)
	}
}

func TestEstimateCSIRecoverChannel(t *testing.T) {
	cfg := DefaultConfig()
	wf, _ := Transmit([]byte{1, 2, 3}, cfg)
	h := multipathChannel(0.4, 0.2)
	rx := ApplyChannel(wf, h, 0, nil)
	csi, err := EstimateCSI(rx.LTF)
	if err != nil {
		t.Fatal(err)
	}
	for k, g := range csi.Gains {
		if cmplx.Abs(g-h(0, k)) > 1e-9 {
			t.Fatalf("CSI[%d] = %v, true %v", k, g, h(0, k))
		}
	}
	if _, err := EstimateCSI(nil); err == nil {
		t.Fatal("empty LTF accepted")
	}
	if _, err := EstimateCSI([][]complex128{{1}, {1, 2}}); err == nil {
		t.Fatal("ragged LTF accepted")
	}
}

func TestCPECorrectionAbsorbsCommonPhase(t *testing.T) {
	// A pure common phase rotation applied to every data symbol (but not
	// the preamble) models oscillator drift; pilots must absorb it.
	rng := stats.NewRNG(24)
	cfg := cfgWithMCS(t, 4)
	psdu := stats.RandomBytes(rng, 200)
	wf, _ := Transmit(psdu, cfg)
	rot := cmplx.Exp(complex(0, 0.4)) // 23° — enough to break 16-QAM without CPE tracking
	h := func(sym, sc int) complex128 {
		if sym < cfg.LTFRepeats {
			return 1
		}
		return rot
	}
	rx := ApplyChannel(wf, h, 0, nil)
	csi, _ := EstimateCSI(rx.LTF)
	res, err := Receive(rx, csi, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.PSDU, psdu) {
		t.Fatal("CPE correction failed to absorb common rotation")
	}
}

// TestStaleCSICorruptionBreaksTargetSubframe is the heart of WiTAG: build
// an A-MPDU of null MPDUs, flip the channel during one subframe's symbols,
// and verify exactly that subframe fails FCS while the rest decode.
func TestStaleCSICorruptionBreaksTargetSubframe(t *testing.T) {
	cfg := cfgWithMCS(t, 2)
	// Build an A-MPDU of 8 QoS null subframes.
	var mpdus [][]byte
	for i := 0; i < 8; i++ {
		f := &dot11.QoSDataFrame{
			FC:     dot11.FrameControl{Type: dot11.TypeQoSNull, ToDS: true},
			Addr1:  dot11.MACAddr{2, 0, 0, 0, 0, 1},
			Addr2:  dot11.MACAddr{2, 0, 0, 0, 0, 2},
			Addr3:  dot11.MACAddr{2, 0, 0, 0, 0, 1},
			SeqNum: uint16(i),
		}
		w, err := f.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		mpdus = append(mpdus, w)
	}
	agg, err := dot11.Aggregate(mpdus)
	if err != nil {
		t.Fatal(err)
	}
	psdu, err := agg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := agg.SubframeBounds()
	if err != nil {
		t.Fatal(err)
	}

	const target = 4
	// Corrupt symbols strictly inside the target subframe, one symbol of
	// guard on each side for trellis spill.
	firstSym := cfg.SymbolOfPSDUByte(bounds[target][0]) + 1
	lastSym := cfg.SymbolOfPSDUByte(bounds[target][1]-1) - 1
	if firstSym > lastSym {
		t.Fatalf("subframe too short for this MCS: symbols [%d,%d]", firstSym, lastSym)
	}

	base := multipathChannel(0.3, 0.25)
	// The tag's reflection: an extra path whose phase flips by 180°,
	// changing each subcarrier differently thanks to its delay slope.
	tagDelta := func(sc int) complex128 {
		return complex(0.35, 0) * cmplx.Exp(complex(0, 0.45*float64(sc)))
	}
	h := func(sym, sc int) complex128 {
		g := base(sym, sc) + tagDelta(sc) // tag reflecting at 0°
		dataSym := sym - cfg.LTFRepeats
		if dataSym >= firstSym && dataSym <= lastSym {
			g = base(sym, sc) - tagDelta(sc) // tag flipped to 180°
		}
		return g
	}

	wf, err := Transmit(psdu, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rx := ApplyChannel(wf, h, 1/SNRFromDb(25), stats.NewRNG(77))
	csi, _ := EstimateCSI(rx.LTF)
	res, err := Receive(rx, csi, false)
	if err != nil {
		t.Fatal(err)
	}

	subs, err := dot11.Deaggregate(res.PSDU)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) < 8 {
		t.Logf("deaggregation recovered %d of 8 subframes (resync expected)", len(subs))
	}
	// Check each original subframe: present with valid FCS?
	okBySeq := map[uint16]bool{}
	for _, s := range subs {
		if f, err := dot11.UnmarshalQoSData(s.MPDU); err == nil {
			okBySeq[f.SeqNum] = true
		}
	}
	for i := 0; i < 8; i++ {
		ok := okBySeq[uint16(i)]
		if i == target && ok {
			t.Fatalf("target subframe %d decoded despite stale CSI", i)
		}
		if i != target && !ok {
			t.Fatalf("untouched subframe %d failed to decode", i)
		}
	}
	// EVM must spike during the corrupted window.
	var inEVM, outEVM float64
	var inN, outN int
	for s, e := range res.SymbolEVM {
		if s >= firstSym && s <= lastSym {
			inEVM += e
			inN++
		} else {
			outEVM += e
			outN++
		}
	}
	if inEVM/float64(inN) < 3*outEVM/float64(outN) {
		t.Fatalf("EVM burst not visible: in=%v out=%v", inEVM/float64(inN), outEVM/float64(outN))
	}
}

func TestPureCommonPhaseFlipIsNotEnough(t *testing.T) {
	// Contrast case: if the tag's path had NO delay slope (a physically
	// impossible zero-delay reflection), flipping it by 180° while it
	// dominates nothing would be partially absorbed by CPE tracking. With
	// a *small* flat delta, the subframe should survive — demonstrating
	// why §5.2's channel-change maximisation matters.
	cfg := cfgWithMCS(t, 0) // most robust MCS
	rng := stats.NewRNG(25)
	psdu := stats.RandomBytes(rng, 120)
	wf, _ := Transmit(psdu, cfg)
	h := func(sym, sc int) complex128 {
		if sym < cfg.LTFRepeats {
			return 1 + 0.02 // tiny flat tag path at 0°
		}
		return 1 - 0.02 // flipped: a 4% flat perturbation
	}
	rx := ApplyChannel(wf, h, 1/SNRFromDb(25), stats.NewRNG(7))
	csi, _ := EstimateCSI(rx.LTF)
	res, err := Receive(rx, csi, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.PSDU, psdu) {
		t.Fatal("a 4% channel change should not corrupt MCS0")
	}
}

func TestReceiveValidation(t *testing.T) {
	cfg := DefaultConfig()
	wf, _ := Transmit([]byte{1, 2, 3, 4}, cfg)
	rx := ApplyChannel(wf, flatChannel, 0, nil)
	csi, _ := EstimateCSI(rx.LTF)
	// Wrong CSI width.
	bad := &CSI{Gains: csi.Gains[:10]}
	if _, err := Receive(rx, bad, false); err == nil {
		t.Fatal("short CSI accepted")
	}
	// Wrong symbol count vs claimed PSDU length.
	rx2 := ApplyChannel(wf, flatChannel, 0, nil)
	rx2.PSDULen = 4000
	if _, err := Receive(rx2, csi, false); err == nil {
		t.Fatal("symbol/PSDU length mismatch accepted")
	}
	// Malformed input must fail with an error, not a panic.
	for _, soft := range []bool{false, true} {
		if _, err := Receive(nil, csi, soft); err == nil {
			t.Fatal("nil received frame accepted")
		}
		noLayout := *rx
		noLayout.Layout = nil
		if _, err := Receive(&noLayout, csi, soft); err == nil {
			t.Fatal("frame without a layout accepted")
		}
		if _, err := Receive(rx, nil, soft); err == nil {
			t.Fatal("nil CSI accepted")
		}
		otherWidth, err := LayoutFor(dot11.Width40)
		if err != nil {
			t.Fatal(err)
		}
		wrongLayout := *rx
		wrongLayout.Layout = otherWidth
		if _, err := Receive(&wrongLayout, csi, soft); err == nil {
			t.Fatal("layout of another width accepted")
		}
		badPilots := *rx.Layout // a copy: the shared layout must not change
		badPilots.PilotIdx = append([]int{badPilots.NumUsed()}, badPilots.PilotIdx[1:]...)
		pilotsOut := *rx
		pilotsOut.Layout = &badPilots
		if _, err := Receive(&pilotsOut, csi, soft); err == nil {
			t.Fatal("pilot index outside the used subcarriers accepted")
		}
		for _, n := range []int{wf.Layout.NumUsed() - 1, wf.Layout.NumUsed() + 1, 0} {
			short := *rx
			short.Symbols = append([][]complex128(nil), rx.Symbols...)
			short.Symbols[len(short.Symbols)-1] = make([]complex128, n)
			if _, err := Receive(&short, csi, soft); err == nil {
				t.Fatalf("data symbol of %d subcarriers accepted", n)
			}
		}
	}
	// The frame itself still decodes.
	if res, err := Receive(rx, csi, false); err != nil || !bytes.Equal(res.PSDU, []byte{1, 2, 3, 4}) {
		t.Fatalf("valid frame: %v, %v", res, err)
	}
}

func TestApplyChannelNoiseStatistics(t *testing.T) {
	cfg := DefaultConfig()
	wf, _ := Transmit(make([]byte, 500), cfg)
	noiseVar := 0.04
	rx := ApplyChannel(wf, flatChannel, noiseVar, stats.NewRNG(31))
	// Measure noise power on data symbols against the known TX values.
	var p float64
	var n int
	for s, sym := range rx.Symbols {
		for k, v := range sym {
			e := v - wf.Symbols[s][k]
			p += real(e)*real(e) + imag(e)*imag(e)
			n++
		}
	}
	got := p / float64(n)
	if math.Abs(got-noiseVar)/noiseVar > 0.1 {
		t.Fatalf("measured noise var %v, want %v", got, noiseVar)
	}
}

func TestWaveformPSDUBitsMatchInput(t *testing.T) {
	// The PSDU must ride inside the scrambled stream: flipping one PSDU
	// byte must change at least one transmitted symbol.
	cfg := DefaultConfig()
	a, _ := Transmit([]byte{0x00, 0x00, 0x00, 0x00}, cfg)
	b, _ := Transmit([]byte{0x00, 0xFF, 0x00, 0x00}, cfg)
	diff := false
	for s := range a.Symbols {
		for k := range a.Symbols[s] {
			if a.Symbols[s][k] != b.Symbols[s][k] {
				diff = true
			}
		}
	}
	if !diff {
		t.Fatal("changing the PSDU did not change the waveform")
	}
}

func TestBitsToBytesConsistency(t *testing.T) {
	// Guard against order regressions between phy and bitio.
	psdu := []byte{0xA5}
	bits := bitio.BytesToBits(psdu)
	if bits[0] != 1 || bits[1] != 0 || bits[2] != 1 {
		t.Fatal("LSB-first convention violated")
	}
}

func TestPilotPolarityBalanced(t *testing.T) {
	plus := 0
	for n := 0; n < 127; n++ {
		if pilotPolarity(n) > 0 {
			plus++
		}
	}
	if plus < 50 || plus > 77 {
		t.Fatalf("pilot polarity unbalanced: %d/127 positive", plus)
	}
}

// TestPilotPolarityTableMatchesLFSR checks the precomputed polarity table
// against its definition: the sign of the last feedback bit after
// n mod 127 + 1 steps of the all-ones-seeded scrambler LFSR.
func TestPilotPolarityTableMatchesLFSR(t *testing.T) {
	for n := 0; n <= 300; n++ {
		state := byte(0x7F)
		var bit byte
		for i := 0; i <= n%127; i++ {
			bit = (state >> 6 & 1) ^ (state >> 3 & 1)
			state = state<<1&0x7F | bit
		}
		want := 1.0
		if bit == 1 {
			want = -1
		}
		if got := pilotPolarity(n); got != want {
			t.Fatalf("pilotPolarity(%d) = %v, LFSR gives %v", n, got, want)
		}
	}
}

func TestLTFSequenceIsSigns(t *testing.T) {
	for k := 0; k < 56; k++ {
		v := ltfSequence(k)
		if v != 1 && v != -1 {
			t.Fatalf("LTF[%d] = %v", k, v)
		}
	}
}
