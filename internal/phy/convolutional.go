package phy

import (
	"fmt"
	"math"

	"witag/internal/dot11"
)

// The 802.11 convolutional code: constraint length K=7, rate 1/2, generator
// polynomials g0 = 133₈, g1 = 171₈ (IEEE 802.11-2012 §18.3.5.6). Higher
// rates are obtained by puncturing. Decoding is Viterbi over the 64-state
// trellis, in hard- or soft-decision form.

const (
	convK      = 7
	convStates = 1 << (convK - 1) // 64
	genG0      = 0o133
	genG1      = 0o171
)

// parity returns the parity of x.
func parity(x uint32) byte {
	x ^= x >> 16
	x ^= x >> 8
	x ^= x >> 4
	x ^= x >> 2
	x ^= x >> 1
	return byte(x & 1)
}

// convOutputs[state][input] caches the two coded bits emitted for a
// transition.
var convOutputs [convStates][2][2]byte

func init() {
	for s := 0; s < convStates; s++ {
		for in := 0; in < 2; in++ {
			reg := uint32(in)<<(convK-1) | uint32(s)
			convOutputs[s][in][0] = parity(reg & genG0)
			convOutputs[s][in][1] = parity(reg & genG1)
		}
	}
}

// ConvEncode encodes data bits at rate 1/2. The caller is responsible for
// appending the six zero tail bits that flush the encoder (the OFDM framer
// does this).
func ConvEncode(bits []byte) []byte {
	out := make([]byte, 0, len(bits)*2)
	state := 0
	for _, b := range bits {
		in := int(b & 1)
		o := convOutputs[state][in]
		out = append(out, o[0], o[1])
		state = in<<(convK-2) | state>>1
	}
	return out
}

// Keep-patterns per code rate: a boolean per mother-code bit over one
// puncturing period. Shared and read-only.
var (
	puncture12 = []bool{true, true}
	puncture23 = []bool{true, true, true, false}
	puncture34 = []bool{true, true, true, false, false, true}
	puncture56 = []bool{true, true, true, false, false, true, true, false, false, true}
)

// punctureMap returns the keep-pattern for a code rate. Callers must not
// modify it.
func punctureMap(rate dot11.CodeRate) ([]bool, error) {
	switch rate {
	case dot11.Rate12:
		return puncture12, nil
	case dot11.Rate23:
		return puncture23, nil
	case dot11.Rate34:
		return puncture34, nil
	case dot11.Rate56:
		return puncture56, nil
	default:
		return nil, fmt.Errorf("phy: unsupported code rate %v", rate)
	}
}

// Puncture drops mother-code bits according to the rate's pattern.
func Puncture(coded []byte, rate dot11.CodeRate) ([]byte, error) {
	pat, err := punctureMap(rate)
	if err != nil {
		return nil, err
	}
	return appendPunctured(make([]byte, 0, len(coded)*rate.Den/(2*rate.Num)), coded, pat), nil
}

// appendPunctured appends the bits of coded that pat keeps to dst. The
// write position never passes the read position, so dst may be coded[:0]
// to puncture in place.
func appendPunctured(dst, coded []byte, pat []bool) []byte {
	for i, b := range coded {
		if pat[i%len(pat)] {
			dst = append(dst, b)
		}
	}
	return dst
}

// erasure marks a depunctured position carrying no channel information.
const erasure byte = 2

// Depuncture re-inserts erasure marks where Puncture dropped bits, so the
// Viterbi decoder can skip their branch metrics.
func Depuncture(punctured []byte, rate dot11.CodeRate, motherLen int) ([]byte, error) {
	pat, err := punctureMap(rate)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, motherLen)
	j := 0
	for i := 0; i < motherLen; i++ {
		if pat[i%len(pat)] {
			if j >= len(punctured) {
				return nil, fmt.Errorf("phy: punctured stream too short: need >%d bits", j)
			}
			out = append(out, punctured[j])
			j++
		} else {
			out = append(out, erasure)
		}
	}
	if j != len(punctured) {
		return nil, fmt.Errorf("phy: punctured stream has %d leftover bits", len(punctured)-j)
	}
	return out, nil
}

// Both decoders keep their path metrics in two [64] arrays and their
// survivors bit-packed, one uint64 per trellis step: bit ns holds the low
// bit of the predecessor that won state ns. The rest of a transition is
// implied by the shift-register trellis — state ns = in<<5 | s>>1 — so the
// decoded bit is ns>>5&1 and the predecessor is ns<<1&63 | the stored bit.
// The add-compare-select loops visit s ascending, then in, and keep a
// candidate only when it is strictly better, so ties resolve to the lower
// predecessor.

// ViterbiDecode performs hard-decision maximum-likelihood decoding of a
// rate-1/2 mother-code stream (with optional erasure marks from
// Depuncture). It returns the decoded bits, including whatever tail the
// encoder appended.
func ViterbiDecode(coded []byte) ([]byte, error) {
	if len(coded)%2 != 0 {
		return nil, fmt.Errorf("phy: coded length %d is odd", len(coded))
	}
	n := len(coded) / 2
	if n == 0 {
		return nil, nil
	}
	const inf = math.MaxInt32 / 2
	var bufA, bufB [convStates]int32
	metric, next := &bufA, &bufB
	for s := 1; s < convStates; s++ {
		metric[s] = inf // encoder starts in state 0
	}
	survivors := make([]uint64, n)
	for t := 0; t < n; t++ {
		c0, c1 := coded[2*t], coded[2*t+1]
		for s := range next {
			next[s] = inf
		}
		var sv uint64
		for s := 0; s < convStates; s++ {
			if metric[s] >= inf {
				continue
			}
			for in := 0; in < 2; in++ {
				o := convOutputs[s][in]
				var bm int32
				if c0 != erasure && o[0] != c0&1 {
					bm++
				}
				if c1 != erasure && o[1] != c1&1 {
					bm++
				}
				ns := in<<(convK-2) | s>>1
				m := metric[s] + bm
				if m < next[ns] {
					next[ns] = m
					// The odd predecessor of ns is visited after the
					// even one, so setting its bit never needs undoing.
					sv |= uint64(s&1) << ns
				}
			}
		}
		survivors[t] = sv
		metric, next = next, metric
	}
	// Terminate in the best state (state 0 when tail bits flushed cleanly).
	return traceback(survivors, bestState(metric)), nil
}

// ViterbiDecodeSoft decodes using per-bit soft metrics: llr[i] > 0 favours
// bit 0, llr[i] < 0 favours bit 1, magnitude is confidence. Erasures are
// zeros. Soft decoding buys ≈2 dB over hard decisions — the link model's
// coding-gain constant is calibrated against this path.
func ViterbiDecodeSoft(llr []float64) ([]byte, error) {
	if len(llr)%2 != 0 {
		return nil, fmt.Errorf("phy: soft stream length %d is odd", len(llr))
	}
	n := len(llr) / 2
	if n == 0 {
		return nil, nil
	}
	inf := math.Inf(1)
	var bufA, bufB [convStates]float64
	metric, next := &bufA, &bufB
	for s := 1; s < convStates; s++ {
		metric[s] = inf
	}
	survivors := make([]uint64, n)
	for t := 0; t < n; t++ {
		l0, l1 := llr[2*t], llr[2*t+1]
		for s := range next {
			next[s] = inf
		}
		var sv uint64
		for s := 0; s < convStates; s++ {
			if math.IsInf(metric[s], 1) {
				continue
			}
			for in := 0; in < 2; in++ {
				o := convOutputs[s][in]
				bm := 0.0
				// Cost of emitting bit b against LLR l: penalise when the
				// sign disagrees, in proportion to confidence.
				if o[0] == 0 {
					bm += math.Max(0, -l0)
				} else {
					bm += math.Max(0, l0)
				}
				if o[1] == 0 {
					bm += math.Max(0, -l1)
				} else {
					bm += math.Max(0, l1)
				}
				ns := in<<(convK-2) | s>>1
				m := metric[s] + bm
				if m < next[ns] {
					next[ns] = m
					sv |= uint64(s&1) << ns
				}
			}
		}
		survivors[t] = sv
		metric, next = next, metric
	}
	return traceback(survivors, bestState(metric)), nil
}

// bestState returns the state with the lowest path metric, the lowest
// such state on a tie.
func bestState[T int32 | float64](metric *[convStates]T) int {
	best := 0
	for s := 1; s < convStates; s++ {
		if metric[s] < metric[best] {
			best = s
		}
	}
	return best
}

// traceback walks the packed survivors back from state and returns the
// decoded bits.
func traceback(survivors []uint64, state int) []byte {
	out := make([]byte, len(survivors))
	for t := len(survivors) - 1; t >= 0; t-- {
		out[t] = byte(state >> (convK - 2) & 1)
		state = state<<1&(convStates-1) | int(survivors[t]>>state&1)
	}
	return out
}
