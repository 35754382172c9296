package phy

import (
	"fmt"
	"math"
	"math/cmplx"

	"witag/internal/dot11"
)

// Gray-coded square QAM constellations per IEEE 802.11-2012 §18.3.5.8.
// Each axis carries half the subcarrier's bits as a Gray-coded PAM; the
// constellation is normalised to unit average energy so SNR definitions
// stay consistent across modulations (K_MOD in the standard).

// Mapper maps coded bits to constellation points and back for one
// modulation.
type Mapper struct {
	mod      dot11.Modulation
	bitsPerI int       // bits per I/Q axis
	levels   []float64 // PAM levels in Gray-code order of bit value
	scale    float64   // normalisation factor
}

// NewMapper builds the mapper for a modulation.
func NewMapper(mod dot11.Modulation) (*Mapper, error) {
	bps := mod.BitsPerSymbol()
	if bps == 0 {
		return nil, fmt.Errorf("phy: unknown modulation %v", mod)
	}
	m := &Mapper{mod: mod}
	if mod == dot11.BPSK {
		// BPSK uses only the I axis: bit 0 → -1, bit 1 → +1.
		m.bitsPerI = 1
		m.levels = []float64{-1, 1}
		m.scale = 1
		return m, nil
	}
	m.bitsPerI = bps / 2
	n := 1 << m.bitsPerI
	// levels[g] = amplitude for Gray-coded bit value g.
	m.levels = make([]float64, n)
	sumSq := 0.0
	for i := 0; i < n; i++ {
		g := i ^ (i >> 1) // binary-reflected Gray code of level index
		amp := float64(2*i - (n - 1))
		m.levels[g] = amp
		sumSq += amp * amp
	}
	// Average symbol energy over both axes = 2 * mean(amp²).
	m.scale = 1 / math.Sqrt(2*sumSq/float64(n))
	return m, nil
}

// BitsPerPoint returns the coded bits carried by one constellation point.
func (m *Mapper) BitsPerPoint() int { return m.mod.BitsPerSymbol() }

// Map converts a group of BitsPerPoint coded bits (first bit = MSB of the
// I axis, per the standard's bit ordering) into a constellation point.
func (m *Mapper) Map(bits []byte) (complex128, error) {
	if len(bits) != m.BitsPerPoint() {
		return 0, fmt.Errorf("phy: %v needs %d bits per point, got %d", m.mod, m.BitsPerPoint(), len(bits))
	}
	if m.mod == dot11.BPSK {
		return complex(m.levels[bits[0]&1], 0), nil
	}
	iBits, qBits := bits[:m.bitsPerI], bits[m.bitsPerI:]
	return complex(m.axisLevel(iBits)*m.scale, m.axisLevel(qBits)*m.scale), nil
}

func (m *Mapper) axisLevel(bits []byte) float64 {
	g := 0
	for _, b := range bits {
		g = g<<1 | int(b&1)
	}
	return m.levels[g]
}

// HardDemap slices a received point to the nearest constellation point's
// bits.
func (m *Mapper) HardDemap(pt complex128) []byte {
	return m.appendHardDemap(make([]byte, 0, m.BitsPerPoint()), pt)
}

// appendHardDemap appends HardDemap's bits for pt to dst.
func (m *Mapper) appendHardDemap(dst []byte, pt complex128) []byte {
	if m.mod == dot11.BPSK {
		if real(pt) >= 0 {
			return append(dst, 1)
		}
		return append(dst, 0)
	}
	dst = m.appendAxisDemap(dst, real(pt)/m.scale)
	return m.appendAxisDemap(dst, imag(pt)/m.scale)
}

func (m *Mapper) appendAxisDemap(dst []byte, x float64) []byte {
	bestG, bestD := 0, math.Inf(1)
	for g, amp := range m.levels {
		d := (x - amp) * (x - amp)
		if d < bestD {
			bestD = d
			bestG = g
		}
	}
	for i := 0; i < m.bitsPerI; i++ {
		dst = append(dst, byte(bestG>>uint(m.bitsPerI-1-i)&1))
	}
	return dst
}

// SoftDemap produces max-log LLRs for each bit of a received point:
// positive favours 0, negative favours 1, scaled by 1/noiseVar.
func (m *Mapper) SoftDemap(pt complex128, noiseVar float64) []float64 {
	return m.appendSoftDemap(make([]float64, 0, m.BitsPerPoint()), pt, noiseVar)
}

// appendSoftDemap appends SoftDemap's LLRs for pt to dst.
func (m *Mapper) appendSoftDemap(dst []float64, pt complex128, noiseVar float64) []float64 {
	if noiseVar <= 0 {
		noiseVar = 1e-12
	}
	if m.mod == dot11.BPSK {
		return append(dst, -2*real(pt)/noiseVar)
	}
	dst = m.appendAxisSoft(dst, real(pt)/m.scale, noiseVar)
	return m.appendAxisSoft(dst, imag(pt)/m.scale, noiseVar)
}

func (m *Mapper) appendAxisSoft(dst []float64, x float64, noiseVar float64) []float64 {
	nv := noiseVar / (m.scale * m.scale)
	for bit := 0; bit < m.bitsPerI; bit++ {
		d0, d1 := math.Inf(1), math.Inf(1)
		for g, amp := range m.levels {
			d := (x - amp) * (x - amp)
			if g>>uint(m.bitsPerI-1-bit)&1 == 0 {
				if d < d0 {
					d0 = d
				}
			} else if d < d1 {
				d1 = d
			}
		}
		dst = append(dst, (d1-d0)/nv)
	}
	return dst
}

// EVM computes the error vector magnitude (RMS, linear) between received
// and reference constellation points. Receivers and the analytic link
// model both consume this: WiTAG's corruption shows up as EVM bursts.
func EVM(received, reference []complex128) (float64, error) {
	if len(received) != len(reference) {
		return 0, fmt.Errorf("phy: EVM length mismatch %d vs %d", len(received), len(reference))
	}
	if len(received) == 0 {
		return 0, nil
	}
	var errP, refP float64
	for i := range received {
		e := received[i] - reference[i]
		errP += real(e)*real(e) + imag(e)*imag(e)
		refP += real(reference[i])*real(reference[i]) + imag(reference[i])*imag(reference[i])
	}
	if refP == 0 {
		return 0, fmt.Errorf("phy: EVM undefined for zero reference power")
	}
	return math.Sqrt(errP / refP), nil
}

// Rotate returns the point rotated by theta radians — used by tag and
// channel models for phase-flip reflections.
func Rotate(pt complex128, theta float64) complex128 {
	return pt * cmplx.Exp(complex(0, theta))
}
