package phy

import (
	"fmt"
	"math/cmplx"

	"witag/internal/bitio"
	"witag/internal/obs"
)

// CSI is the receiver's per-used-subcarrier channel estimate, measured once
// from the preamble's training symbols. This single estimation per PPDU is
// the property WiTAG exploits: it stays in force for every subsequent data
// symbol of the aggregate.
type CSI struct {
	Gains []complex128
}

// EstimateCSI least-squares-estimates the channel from received training
// symbols, averaging across repetitions to suppress noise.
func EstimateCSI(ltf [][]complex128) (*CSI, error) {
	if len(ltf) == 0 {
		return nil, fmt.Errorf("phy: no training symbols")
	}
	n := len(ltf[0])
	gains := make([]complex128, n)
	for _, sym := range ltf {
		if len(sym) != n {
			return nil, fmt.Errorf("phy: ragged training symbols")
		}
		for k, v := range sym {
			gains[k] += v / ltfSequence(k)
		}
	}
	for k := range gains {
		gains[k] /= complex(float64(len(ltf)), 0)
	}
	return &CSI{Gains: gains}, nil
}

// ReceiveResult carries the decoded PSDU plus receiver diagnostics.
type ReceiveResult struct {
	PSDU          []byte
	SymbolEVM     []float64 // per-data-symbol EVM against sliced points
	ScramblerSeed byte
	CodedBitErrs  int // pre-Viterbi hard-decision errors (diagnostic)
}

// Receive runs the RX chain: channel equalisation with the preamble CSI,
// pilot-based common-phase-error tracking, demapping, deinterleaving,
// depuncturing, Viterbi decoding, and descrambling. soft selects
// soft-decision Viterbi.
//
// Crucially, equalisation always uses the CSI estimated at the preamble.
// Pilot tracking corrects only a *common* phase rotation per symbol; a
// WiTAG tag's reflection changes each subcarrier differently (its path
// delay imposes a frequency-dependent phase ramp), so pilots cannot undo
// the corruption — matching the behaviour of real receivers described in
// §5 of the paper.
func Receive(rx *Received, csi *CSI, soft bool) (*ReceiveResult, error) {
	if rx == nil || rx.Layout == nil {
		return nil, fmt.Errorf("phy: received frame has no subcarrier layout")
	}
	if csi == nil {
		return nil, fmt.Errorf("phy: no CSI to equalise with")
	}
	cfg := rx.Config
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	_, mapper, il, err := chainTables(cfg)
	if err != nil {
		return nil, err
	}
	pat, err := punctureMap(cfg.MCS.CodeRate)
	if err != nil {
		return nil, err
	}
	layout := rx.Layout
	nused := layout.NumUsed()
	bps := mapper.BitsPerPoint()
	ncbps := cfg.MCS.CodedBitsPerSymbol(cfg.Width)
	ndbps := cfg.MCS.DataBitsPerSymbol(cfg.Width)
	nsym := cfg.NumSymbols(rx.PSDULen)
	if len(layout.dataIdx) != layout.NumData || layout.NumData*bps != ncbps {
		return nil, fmt.Errorf("phy: layout has %d data subcarriers, %v at %d MHz needs %d", len(layout.dataIdx), cfg.MCS, cfg.Width, ncbps/bps)
	}
	for _, pidx := range layout.PilotIdx {
		if pidx < 0 || pidx >= nused {
			return nil, fmt.Errorf("phy: pilot index %d outside %d used subcarriers", pidx, nused)
		}
	}
	if len(rx.Symbols) != nsym {
		return nil, fmt.Errorf("phy: received %d data symbols, HT-SIG says %d", len(rx.Symbols), nsym)
	}
	for s, sym := range rx.Symbols {
		if len(sym) != nused {
			return nil, fmt.Errorf("phy: data symbol %d has %d subcarriers, layout has %d", s, len(sym), nused)
		}
	}
	if len(csi.Gains) != nused {
		return nil, fmt.Errorf("phy: CSI covers %d subcarriers, layout has %d", len(csi.Gains), nused)
	}

	// Per-frame buffers: one equalised symbol, one demapped block and the
	// EVM point pairs are reused for every symbol, and each deinterleaved
	// block lands directly in the frame's coded stream.
	res := &ReceiveResult{SymbolEVM: make([]float64, 0, nsym)}
	spans := rx.Spans
	eq := make([]complex128, nused)
	pts := make([]complex128, 2*layout.NumData)
	recPts, refPts := pts[:layout.NumData], pts[layout.NumData:]
	blockHard := make([]byte, 0, ncbps)
	hardStream := make([]byte, nsym*ncbps)
	var blockSoft, softStream []float64
	if soft {
		blockSoft = make([]float64, 0, ncbps)
		softStream = make([]float64, nsym*ncbps)
	}
	for s, sym := range rx.Symbols {
		sp := spans.Start()
		equaliseSymbol(eq, sym, csi.Gains, layout.PilotIdx, pilotPolarity(s))
		// Demap data subcarriers.
		blockHard, blockSoft = blockHard[:0], blockSoft[:0]
		for d, idx := range layout.dataIdx {
			pt := eq[idx]
			blockHard = mapper.appendHardDemap(blockHard, pt)
			if soft {
				blockSoft = mapper.appendSoftDemap(blockSoft, pt, rx.NoiseVar)
			}
			sliced, err := mapper.Map(blockHard[d*bps:])
			if err != nil {
				return nil, err
			}
			recPts[d], refPts[d] = pt, sliced
		}
		evm, err := EVM(recPts, refPts)
		if err != nil {
			return nil, err
		}
		res.SymbolEVM = append(res.SymbolEVM, evm)
		spans.End(obs.PhaseEqualise, sp)

		sp = spans.Start()
		deinterleaveInto(il, hardStream[s*ncbps:(s+1)*ncbps], blockHard)
		if soft {
			deinterleaveInto(il, softStream[s*ncbps:(s+1)*ncbps], blockSoft)
		}
		spans.End(obs.PhaseDeinterleave, sp)
	}

	sp := spans.Start()
	motherLen := 2 * nsym * ndbps
	var decoded []byte
	if soft {
		// Depuncture soft metrics: zeros at punctured positions.
		full := make([]float64, 0, motherLen)
		j := 0
		for i := 0; i < motherLen; i++ {
			if pat[i%len(pat)] {
				if j >= len(softStream) {
					return nil, fmt.Errorf("phy: soft stream too short")
				}
				full = append(full, softStream[j])
				j++
			} else {
				full = append(full, 0)
			}
		}
		decoded, err = ViterbiDecodeSoft(full)
		if err != nil {
			return nil, err
		}
	} else {
		full, err := Depuncture(hardStream, cfg.MCS.CodeRate, motherLen)
		if err != nil {
			return nil, err
		}
		decoded, err = ViterbiDecode(full)
		if err != nil {
			return nil, err
		}
	}
	spans.End(obs.PhaseViterbi, sp)
	sp = spans.Start()

	// Diagnostic: re-encode and count pre-Viterbi disagreements.
	reCoded := ConvEncode(decoded)
	rePunct := appendPunctured(reCoded[:0], reCoded, pat)
	if len(rePunct) == len(hardStream) {
		d, err := bitio.HammingDistance(rePunct, hardStream)
		if err == nil {
			res.CodedBitErrs = d
		}
	}

	// Recover the scrambler seed from the SERVICE field and descramble in
	// place.
	seed, err := RecoverScramblerSeed(decoded[:7])
	if err != nil {
		return nil, err
	}
	res.ScramblerSeed = seed
	scrambleInto(decoded, decoded, seed)
	res.PSDU = bitio.BitsToBytes(decoded[16 : 16+8*rx.PSDULen])
	spans.End(obs.PhaseCRC, sp)
	return res, nil
}

// equaliseSymbol divides one received OFDM symbol by the preamble CSI and
// removes the pilot-tracked common phase error, writing the equalised
// subcarriers into eq (len(sym) of them) and returning that prefix. pol is
// the symbol's pilot polarity. This is the receiver's per-symbol
// equalisation stage, split out so the decode-path benchmarks can time it
// in isolation.
func equaliseSymbol(eq, sym, gains []complex128, pilotIdx []int, pol float64) []complex128 {
	eq = eq[:len(sym)]
	for k, v := range sym {
		g := gains[k]
		if g == 0 {
			g = 1e-12
		}
		eq[k] = v / g
	}
	var acc complex128
	for _, pidx := range pilotIdx {
		acc += eq[pidx] * complex(pol, 0)
	}
	if acc != 0 {
		cpe := cmplx.Exp(complex(0, -cmplx.Phase(acc)))
		for k := range eq {
			eq[k] *= cpe
		}
	}
	return eq
}
