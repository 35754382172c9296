package phy

import "fmt"

// The 802.11 block interleaver (IEEE 802.11-2012 §18.3.5.7, §20.3.11.8.1)
// spreads adjacent coded bits across non-adjacent subcarriers and
// alternating constellation bit positions, so a notch in the channel
// produces scattered — Viterbi-correctable — errors rather than bursts.
// Legacy OFDM uses 16 columns; HT 20 MHz uses 13.

// Interleaver holds the precomputed permutation for one (N_CBPS, N_BPSC)
// pair.
type Interleaver struct {
	ncbps int
	perm  []int // perm[k] = transmit position of coded bit k
	inv   []int
}

// NewInterleaver builds the interleaver for ncbps coded bits per symbol,
// nbpsc bits per subcarrier, and ncol columns (16 for legacy, 13 for HT
// 20 MHz, 18 for HT 40 MHz).
func NewInterleaver(ncbps, nbpsc, ncol int) (*Interleaver, error) {
	if ncbps <= 0 || nbpsc <= 0 || ncol <= 0 {
		return nil, fmt.Errorf("phy: invalid interleaver parameters ncbps=%d nbpsc=%d ncol=%d", ncbps, nbpsc, ncol)
	}
	if ncbps%ncol != 0 {
		return nil, fmt.Errorf("phy: N_CBPS %d not divisible by %d columns", ncbps, ncol)
	}
	s := nbpsc / 2
	if s < 1 {
		s = 1
	}
	perm := make([]int, ncbps)
	inv := make([]int, ncbps)
	for k := 0; k < ncbps; k++ {
		// First permutation: write row-wise, read column-wise.
		i := ncbps/ncol*(k%ncol) + k/ncol
		// Second permutation: rotate within groups of s bits so adjacent
		// coded bits map to alternating significance within a subcarrier.
		j := s*(i/s) + (i+ncbps-(ncol*i)/ncbps)%s
		perm[k] = j
		inv[j] = k
	}
	return &Interleaver{ncbps: ncbps, perm: perm, inv: inv}, nil
}

// BlockSize returns N_CBPS, the interleaver block length.
func (il *Interleaver) BlockSize() int { return il.ncbps }

// Interleave permutes one N_CBPS-bit block.
func (il *Interleaver) Interleave(bits []byte) ([]byte, error) {
	if len(bits) != il.ncbps {
		return nil, fmt.Errorf("phy: interleave block must be %d bits, got %d", il.ncbps, len(bits))
	}
	out := make([]byte, len(bits))
	il.interleaveInto(out, bits)
	return out, nil
}

// interleaveInto writes the permuted N_CBPS-bit block bits into dst, which
// must hold N_CBPS bits and not alias bits.
func (il *Interleaver) interleaveInto(dst, bits []byte) {
	for k, b := range bits {
		dst[il.perm[k]] = b
	}
}

// Deinterleave inverts Interleave.
func (il *Interleaver) Deinterleave(bits []byte) ([]byte, error) {
	if len(bits) != il.ncbps {
		return nil, fmt.Errorf("phy: deinterleave block must be %d bits, got %d", il.ncbps, len(bits))
	}
	out := make([]byte, len(bits))
	deinterleaveInto(il, out, bits)
	return out, nil
}

// DeinterleaveSoft inverts the permutation on soft metrics.
func (il *Interleaver) DeinterleaveSoft(llr []float64) ([]float64, error) {
	if len(llr) != il.ncbps {
		return nil, fmt.Errorf("phy: deinterleave block must be %d values, got %d", il.ncbps, len(llr))
	}
	out := make([]float64, len(llr))
	deinterleaveInto(il, out, llr)
	return out, nil
}

// deinterleaveInto writes the inverse permutation of one N_CBPS block of
// hard bits or soft metrics into dst, which must hold N_CBPS values and
// not alias src.
func deinterleaveInto[T byte | float64](il *Interleaver, dst, src []T) {
	for j, v := range src {
		dst[il.inv[j]] = v
	}
}
