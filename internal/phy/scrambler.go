// Package phy implements the 802.11 OFDM physical layer at two levels of
// fidelity.
//
// The bit-true level is a complete frequency-domain baseband chain —
// scrambler, K=7 convolutional code with puncturing and Viterbi decoding,
// block interleaver, BPSK…256-QAM constellation mapping, OFDM symbol
// assembly with pilots, LTF-based channel estimation and per-subcarrier
// equalisation. It exists to demonstrate WiTAG's corruption mechanism for
// real: a change in the wireless channel *after* the preamble leaves the
// receiver equalising with stale CSI, and the resulting error vector tears
// through Viterbi and the FCS.
//
// The analytic level (LinkModel) maps per-subframe SINR/EVM to decode
// probability using closed-form BER curves calibrated against the bit-true
// level, making minute-long experiments tractable. See DESIGN.md §5.
//
// The model is frequency-domain equivalent baseband: channels are
// per-subcarrier complex gains, so no IFFT/FFT round trip is simulated.
// Everything WiTAG depends on — channel estimation error, per-subcarrier
// phase ramps from path delays, pilot common-phase tracking — survives in
// that domain.
package phy

import "fmt"

// scramblerPoly is the 802.11 frame-synchronous scrambler x^7 + x^4 + 1
// (IEEE 802.11-2012 §18.3.5.5). The scrambler whitens the PSDU so that
// pathological payloads (long runs of zeros) don't starve clock recovery.

// Scramble XORs bits with the LFSR stream started from the 7-bit seed.
// bits holds one bit per element; the input is not modified.
func Scramble(bits []byte, seed byte) ([]byte, error) {
	if seed == 0 || seed > 0x7F {
		return nil, fmt.Errorf("phy: scrambler seed must be in [1,127], got %d", seed)
	}
	out := make([]byte, len(bits))
	scrambleInto(out, bits, seed)
	return out, nil
}

// scrambleInto writes bits XOR the LFSR stream started from seed into dst,
// which must be at least as long as bits and may be bits itself. The seed
// must already be valid.
func scrambleInto(dst, bits []byte, seed byte) {
	state := seed
	for i, b := range bits {
		// Feedback = x7 XOR x4 (bits 6 and 3 of the state register).
		fb := (state >> 6 & 1) ^ (state >> 3 & 1)
		dst[i] = (b & 1) ^ fb
		state = state<<1&0x7F | fb
	}
}

// Descramble recovers the original bits. The 802.11 scrambler is additive,
// so descrambling is scrambling with the same seed.
func Descramble(bits []byte, seed byte) ([]byte, error) {
	return Scramble(bits, seed)
}

// RecoverScramblerSeed infers the transmitter's seed from the first 7
// scrambled bits of the SERVICE field, which are zero before scrambling —
// so on the air they *are* the LFSR output, from which the register state
// inverts directly. This is how real receivers synchronise.
func RecoverScramblerSeed(scrambledService []byte) (byte, error) {
	if len(scrambledService) < 7 {
		return 0, fmt.Errorf("phy: need 7 service bits to recover scrambler seed, got %d", len(scrambledService))
	}
	// Output bit i equals state[6-i] XOR state[3-i] style recurrence; the
	// cleanest inversion is to run the LFSR over all 127 possible seeds.
	// Seven bits uniquely identify the seed, and 127 trials are trivial.
	for seed := byte(1); seed <= 0x7F; seed++ {
		state := seed
		match := true
		for i := 0; i < 7; i++ {
			fb := (state >> 6 & 1) ^ (state >> 3 & 1)
			if fb != scrambledService[i]&1 {
				match = false
				break
			}
			state = state<<1&0x7F | fb
		}
		if match {
			return seed, nil
		}
	}
	return 0, fmt.Errorf("phy: no scrambler seed matches service bits (corrupt preamble?)")
}
