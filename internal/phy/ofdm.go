package phy

import (
	"fmt"
	"math"
	"math/rand"

	"witag/internal/dot11"
	"witag/internal/obs"
)

// Config selects the transmission parameters of a PPDU's data portion.
// The bit-true chain models one spatial stream; multi-stream operation is
// covered by the analytic LinkModel (see DESIGN.md §5).
type Config struct {
	MCS           dot11.MCS
	Width         dot11.ChannelWidth
	GI            dot11.GuardInterval
	ScramblerSeed byte // 1..127
	LTFRepeats    int  // training symbol repetitions (default 2)
}

// DefaultConfig returns a conservative single-stream configuration: the
// "robust rate" WiTAG queries use so that uncorrupted subframes decode with
// near-zero error (§4.1 of the paper).
func DefaultConfig() Config {
	mcs, _ := dot11.HTMCS(2) // QPSK 3/4
	return Config{MCS: mcs, Width: dot11.Width20, GI: dot11.LongGI, ScramblerSeed: 93, LTFRepeats: 2}
}

func (c Config) validate() error {
	if c.MCS.Streams != 1 {
		return fmt.Errorf("phy: bit-true chain models 1 spatial stream, MCS has %d", c.MCS.Streams)
	}
	if c.Width.DataSubcarriers() == 0 {
		return fmt.Errorf("phy: unsupported channel width %d", c.Width)
	}
	if c.ScramblerSeed == 0 || c.ScramblerSeed > 0x7F {
		return fmt.Errorf("phy: scrambler seed %d out of [1,127]", c.ScramblerSeed)
	}
	if c.LTFRepeats < 1 {
		return fmt.Errorf("phy: need at least one LTF repetition")
	}
	return nil
}

// interleaverColumns returns the column count of the HT interleaver for a
// width (13 for 20 MHz, 18 for 40 MHz per §20.3.11.8.1; 26 extends the
// pattern to 80 MHz in lieu of VHT's segment parser).
func interleaverColumns(w dot11.ChannelWidth) int {
	switch w {
	case dot11.Width20:
		return 13
	case dot11.Width40:
		return 18
	default:
		return 26
	}
}

// Layout describes the used-subcarrier arrangement of one OFDM symbol:
// data and pilot subcarriers interleaved in one "used" index space.
type Layout struct {
	NumData   int
	NumPilot  int
	PilotIdx  []int // positions of pilots within the used index space
	dataIdx   []int
	isPilotAt []bool
}

// LayoutFor returns the subcarrier layout for a channel width. Pilot
// positions follow the standard's spacing (e.g. ±7, ±21 for 20 MHz),
// translated into used-subcarrier indices.
func LayoutFor(w dot11.ChannelWidth) (*Layout, error) {
	nsd, nsp := w.DataSubcarriers(), w.PilotSubcarriers()
	if nsd == 0 {
		return nil, fmt.Errorf("phy: unsupported channel width %d", w)
	}
	total := nsd + nsp
	l := &Layout{NumData: nsd, NumPilot: nsp, isPilotAt: make([]bool, total)}
	// Spread pilots evenly through the used range, mirroring the
	// standard's symmetric placement.
	for p := 0; p < nsp; p++ {
		idx := (2*p + 1) * total / (2 * nsp)
		l.PilotIdx = append(l.PilotIdx, idx)
		l.isPilotAt[idx] = true
	}
	for i := 0; i < total; i++ {
		if !l.isPilotAt[i] {
			l.dataIdx = append(l.dataIdx, i)
		}
	}
	return l, nil
}

// NumUsed returns the total used subcarriers (data + pilots).
func (l *Layout) NumUsed() int { return l.NumData + l.NumPilot }

// ltfSequence returns the known ±1 training value for used subcarrier k —
// a deterministic pseudo-random sign pattern standing in for the
// standard's L-LTF/HT-LTF sequences.
func ltfSequence(k int) complex128 {
	// Small xorshift on the index gives a fixed, well-balanced pattern.
	x := uint32(k)*2654435761 + 1
	x ^= x >> 13
	x ^= x << 7
	if x&1 == 0 {
		return complex(1, 0)
	}
	return complex(-1, 0)
}

// pilotPolarities is the 127-element ±1 pilot polarity sequence,
// generated by the scrambler LFSR with the all-ones seed — the
// construction the standard itself uses: step i's feedback bit gives
// entry i, 0 → +1 and 1 → −1.
var pilotPolarities = func() (p [127]float64) {
	state := byte(0x7F)
	for i := range p {
		bit := (state >> 6 & 1) ^ (state >> 3 & 1)
		state = state<<1&0x7F | bit
		p[i] = 1 - 2*float64(bit)
	}
	return p
}()

// pilotPolarity returns the ±1 pilot polarity for OFDM symbol n ≥ 0.
func pilotPolarity(n int) float64 { return pilotPolarities[n%127] }

// Waveform is a transmitted PPDU in the frequency domain: training symbols
// followed by data symbols, each a slice over used subcarriers.
type Waveform struct {
	LTF     [][]complex128 // cfg.LTFRepeats training symbols
	Symbols [][]complex128 // data symbols
	PSDULen int
	Config  Config
	// Layout is the shared read-only layout for Config.Width (see
	// tables.go); it must not be mutated.
	Layout *Layout
}

// NumSymbols returns the number of data OFDM symbols a PSDU of n bytes
// occupies at this configuration.
func (c Config) NumSymbols(psduLen int) int {
	ndbps := c.MCS.DataBitsPerSymbol(c.Width)
	bits := 16 + 8*psduLen + 6
	return (bits + ndbps - 1) / ndbps
}

// SymbolOfPSDUByte returns the index of the data OFDM symbol that carries
// the given PSDU byte offset. The WiTAG tag uses this (via subframe byte
// bounds) to align its corruption window to subframes.
func (c Config) SymbolOfPSDUByte(byteIdx int) int {
	ndbps := c.MCS.DataBitsPerSymbol(c.Width)
	return (16 + byteIdx*8) / ndbps
}

// Transmit runs the full TX chain on a PSDU and returns the waveform.
func Transmit(psdu []byte, cfg Config) (*Waveform, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	layout, mapper, il, err := chainTables(cfg)
	if err != nil {
		return nil, err
	}
	pat, err := punctureMap(cfg.MCS.CodeRate)
	if err != nil {
		return nil, err
	}
	ndbps := cfg.MCS.DataBitsPerSymbol(cfg.Width)
	ncbps := cfg.MCS.CodedBitsPerSymbol(cfg.Width)
	nsym := cfg.NumSymbols(len(psdu))

	// SERVICE(16 zero bits) ‖ PSDU (LSB first) ‖ 6 tail ‖ pad to a symbol
	// boundary, scrambled in place.
	bits := make([]byte, nsym*ndbps)
	for i, b := range psdu {
		for j := 0; j < 8; j++ {
			bits[16+8*i+j] = b >> uint(j) & 1
		}
	}
	scrambleInto(bits, bits, cfg.ScramblerSeed)
	// Zero the tail bits after scrambling so the encoder flushes to state 0.
	tailStart := 16 + 8*len(psdu)
	for i := 0; i < 6; i++ {
		bits[tailStart+i] = 0
	}
	coded := ConvEncode(bits)
	punctured := appendPunctured(coded[:0], coded, pat)
	if len(punctured) != nsym*ncbps {
		return nil, fmt.Errorf("phy: internal: punctured %d bits, want %d", len(punctured), nsym*ncbps)
	}

	nused := layout.NumUsed()
	wf := &Waveform{
		LTF:     splitSymbols(cfg.LTFRepeats, nused),
		Symbols: splitSymbols(nsym, nused),
		PSDULen: len(psdu),
		Config:  cfg,
		Layout:  layout,
	}
	for _, ltf := range wf.LTF {
		for k := range ltf {
			ltf[k] = ltfSequence(k)
		}
	}
	bps := mapper.BitsPerPoint()
	block := make([]byte, ncbps)
	for s, sym := range wf.Symbols {
		il.interleaveInto(block, punctured[s*ncbps:(s+1)*ncbps])
		for d, idx := range layout.dataIdx {
			pt, err := mapper.Map(block[d*bps : (d+1)*bps])
			if err != nil {
				return nil, err
			}
			sym[idx] = pt
		}
		pol := pilotPolarity(s)
		for _, pidx := range layout.PilotIdx {
			sym[pidx] = complex(pol, 0)
		}
	}
	return wf, nil
}

// splitSymbols returns n zeroed symbols of width subcarriers each, carved
// from one backing array. Each symbol's capacity ends at its own length,
// so an append to one symbol cannot spill into the next.
func splitSymbols(n, width int) [][]complex128 {
	backing := make([]complex128, n*width)
	syms := make([][]complex128, n)
	for s := range syms {
		syms[s] = backing[s*width : (s+1)*width : (s+1)*width]
	}
	return syms
}

// symbolsLike is splitSymbols for symbols shaped like src, whose lengths
// may differ.
func symbolsLike(src [][]complex128) [][]complex128 {
	total := 0
	for _, sym := range src {
		total += len(sym)
	}
	backing := make([]complex128, total)
	syms := make([][]complex128, len(src))
	for s, sym := range src {
		syms[s] = backing[:len(sym):len(sym)]
		backing = backing[len(sym):]
	}
	return syms
}

// ChannelFunc gives the complex channel gain seen by used subcarrier sc
// during OFDM symbol sym. Symbol indices count training symbols first:
// sym ∈ [0, LTFRepeats) is the preamble, sym-LTFRepeats the data symbol.
type ChannelFunc func(sym, sc int) complex128

// Received holds a waveform after the channel: same shape as Waveform plus
// the noise variance the receiver will assume for soft metrics.
type Received struct {
	LTF      [][]complex128
	Symbols  [][]complex128
	PSDULen  int
	Config   Config
	Layout   *Layout
	NoiseVar float64
	// Spans, when non-nil, attributes Receive's equalise / deinterleave /
	// viterbi / descramble stages to their phases (DESIGN.md §14).
	Spans *obs.Spans
}

// ApplyChannel passes a waveform through a (possibly time-varying) channel
// with AWGN of the given variance per subcarrier. A nil rng disables noise.
func ApplyChannel(wf *Waveform, h ChannelFunc, noiseVar float64, rng *rand.Rand) *Received {
	rx := &Received{
		LTF:      symbolsLike(wf.LTF),
		Symbols:  symbolsLike(wf.Symbols),
		PSDULen:  wf.PSDULen,
		Config:   wf.Config,
		Layout:   wf.Layout,
		NoiseVar: noiseVar,
	}
	addNoise := func(v complex128) complex128 {
		if rng == nil || noiseVar <= 0 {
			return v
		}
		std := noiseStd(noiseVar)
		return v + complex(rng.NormFloat64()*std, rng.NormFloat64()*std)
	}
	for s, sym := range wf.LTF {
		out := rx.LTF[s]
		for k, v := range sym {
			out[k] = addNoise(v * h(s, k))
		}
	}
	for s, sym := range wf.Symbols {
		out := rx.Symbols[s]
		for k, v := range sym {
			out[k] = addNoise(v * h(s+len(wf.LTF), k))
		}
	}
	return rx
}

func noiseStd(noiseVar float64) float64 {
	if noiseVar <= 0 {
		return 0
	}
	return math.Sqrt(noiseVar / 2)
}
