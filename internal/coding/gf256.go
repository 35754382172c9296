// Package coding implements the two competitor reliability schemes the
// related work positions against WiTAG's selective-repeat ARQ: an
// LT-style rateless/fountain code (FlexScatter's adaptive rateless coding
// under dynamic traffic) and a Reed-Solomon erasure code over GF(256)
// whose parity budget tracks observed ambient-traffic loss (GuardRider's
// RS coding sized to ambient statistics). Both are packaged as transfer
// modes that are outer loops over link.Carrier, the frame carrier under
// ARQ too, so the three schemes compare over identical channel worlds.
//
// Layering: a transfer payload is cut into fixed-size source blocks
// (fountain) or shards (RS); every encoded symbol/shard rides in one
// CRC-protected core.Codec frame spanning however many query rounds its
// bits need. The per-frame CRC verdict converts channel corruption into
// symbol *erasures* — exactly the model both codes are built for.
package coding

import "fmt"

// GF(256) arithmetic with the AES/RS-standard primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11D) and generator element 2. Log/exp
// tables are built once at package init; multiply and divide are two
// table lookups and one conditional, which keeps the RS matrix math off
// every profile's hot path.

const gfPoly = 0x11D

var (
	gfExpTab [512]byte // doubled so mul can skip the mod-255 reduction
	gfLogTab [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExpTab[i] = byte(x)
		gfLogTab[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for i := 255; i < 512; i++ {
		gfExpTab[i] = gfExpTab[i-255]
	}
}

// gfAdd adds two field elements (XOR; identical to subtraction).
func gfAdd(a, b byte) byte { return a ^ b }

// gfMul multiplies two field elements.
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExpTab[int(gfLogTab[a])+int(gfLogTab[b])]
}

// gfDiv divides a by b; division by zero is the caller's bug and panics
// like integer division would.
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("coding: GF(256) division by zero")
	}
	if a == 0 {
		return 0
	}
	return gfExpTab[int(gfLogTab[a])+255-int(gfLogTab[b])]
}

// gfInv returns the multiplicative inverse of a.
func gfInv(a byte) byte { return gfDiv(1, a) }

// gfExp returns the generator raised to the n-th power (n ≥ 0).
func gfExp(n int) byte { return gfExpTab[n%255] }

// gfMatMul multiplies the r×k matrix m by the k column vectors held
// row-major in src (each of length n bytes), accumulating into dst
// (length r, each row n bytes). dst rows must be zeroed by the caller.
func gfMatMul(dst, src [][]byte, m [][]byte) {
	for r := range m {
		row := m[r]
		out := dst[r]
		for c, coef := range row {
			if coef == 0 {
				continue
			}
			in := src[c]
			if coef == 1 {
				for i := range out {
					out[i] ^= in[i]
				}
				continue
			}
			lc := int(gfLogTab[coef])
			for i := range out {
				if in[i] != 0 {
					out[i] ^= gfExpTab[lc+int(gfLogTab[in[i]])]
				}
			}
		}
	}
}

// gfInvertMatrix inverts the square matrix m in place by Gauss–Jordan
// elimination, returning an error when m is singular. m is destroyed on
// failure.
func gfInvertMatrix(m [][]byte) error {
	n := len(m)
	inv := make([][]byte, n)
	for i := range inv {
		inv[i] = make([]byte, n)
		inv[i][i] = 1
		if len(m[i]) != n {
			return fmt.Errorf("coding: matrix row %d has %d columns, want %d", i, len(m[i]), n)
		}
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if m[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return fmt.Errorf("coding: singular matrix at column %d", col)
		}
		m[col], m[pivot] = m[pivot], m[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		if p := m[col][col]; p != 1 {
			ip := gfInv(p)
			for c := 0; c < n; c++ {
				m[col][c] = gfMul(m[col][c], ip)
				inv[col][c] = gfMul(inv[col][c], ip)
			}
		}
		for r := 0; r < n; r++ {
			if r == col || m[r][col] == 0 {
				continue
			}
			f := m[r][col]
			for c := 0; c < n; c++ {
				m[r][c] ^= gfMul(f, m[col][c])
				inv[r][c] ^= gfMul(f, inv[col][c])
			}
		}
	}
	copy(m, inv)
	return nil
}
