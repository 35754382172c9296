package coding

import "fmt"

// Systematic Reed-Solomon erasure code over GF(256), GuardRider-style:
// k data shards are extended with m parity shards so that ANY k of the
// n = k+m shards reconstruct the data. The per-frame CRC of the WiTAG
// transfer layer marks corrupted shards, turning channel errors into
// erasures — the RS decoder never has to locate errors, only fill holes.
//
// Construction: an n×k Vandermonde matrix V (rows α_r^c with distinct
// α_r = 2^r) is normalised by the inverse of its top k×k block, making
// the top k rows the identity (systematic: data shards are transmitted
// verbatim) while preserving the Vandermonde property that every k-row
// subset is invertible.

// MaxShards bounds n = k+m: the 255 distinct non-zero evaluation points
// of GF(256).
const MaxShards = 255

// RS is one (k, m) erasure-code instance. Instances are immutable and
// safe for concurrent use; building one costs a k×k matrix inversion, so
// the adaptive transferer caches one per k.
type RS struct {
	K int // data shards
	M int // parity shards

	// matrix is the n×k systematic encoding matrix: rows 0..k-1 are the
	// identity, rows k..n-1 generate parity.
	matrix [][]byte
}

// NewRS builds the (k, m) code.
func NewRS(k, m int) (*RS, error) {
	if k < 1 || m < 0 || k+m > MaxShards {
		return nil, fmt.Errorf("coding: RS shards k=%d m=%d outside 1 ≤ k, 0 ≤ m, k+m ≤ %d", k, m, MaxShards)
	}
	n := k + m
	// Vandermonde rows α_r^c, α_r = 2^r. α_r are distinct for r < 255,
	// so every k×k submatrix is invertible.
	vand := make([][]byte, n)
	for r := 0; r < n; r++ {
		vand[r] = make([]byte, k)
		for c := 0; c < k; c++ {
			vand[r][c] = gfExp(r * c % 255)
		}
	}
	// Normalise by the top block's inverse to make the code systematic.
	top := make([][]byte, k)
	for r := range top {
		top[r] = append([]byte(nil), vand[r]...)
	}
	if err := gfInvertMatrix(top); err != nil {
		return nil, err
	}
	matrix := make([][]byte, n)
	for r := 0; r < n; r++ {
		matrix[r] = make([]byte, k)
	}
	// gfMatMul(dst, B, M) computes dst = M·B with B's rows as vectors, so
	// this is matrix = V · top⁻¹.
	gfMatMul(matrix, top, vand)
	return &RS{K: k, M: m, matrix: matrix}, nil
}

// Parity computes the m parity shards for k equal-length data shards.
func (c *RS) Parity(data [][]byte) ([][]byte, error) {
	if err := c.checkShards(data, c.K); err != nil {
		return nil, err
	}
	size := len(data[0])
	parity := make([][]byte, c.M)
	for i := range parity {
		parity[i] = make([]byte, size)
	}
	gfMatMul(parity, data, c.matrix[c.K:])
	return parity, nil
}

// Reconstruct fills the missing data shards of a partially received
// block. shards must have length k+m with nil entries marking erasures;
// present shards must share one length. On success every data shard
// (index < k) is non-nil; parity shards are left as received. It fails
// when fewer than k shards survive.
func (c *RS) Reconstruct(shards [][]byte) error {
	if len(shards) != c.K+c.M {
		return fmt.Errorf("coding: RS got %d shards, want %d", len(shards), c.K+c.M)
	}
	size := -1
	present := 0
	for _, s := range shards {
		if s == nil {
			continue
		}
		present++
		if size < 0 {
			size = len(s)
		} else if len(s) != size {
			return fmt.Errorf("coding: RS shard lengths differ (%d vs %d)", size, len(s))
		}
	}
	if present < c.K {
		return fmt.Errorf("coding: RS needs %d of %d shards, only %d survived", c.K, c.K+c.M, present)
	}
	missingData := false
	for i := 0; i < c.K; i++ {
		if shards[i] == nil {
			missingData = true
			break
		}
	}
	if !missingData {
		return nil
	}
	// Solve with the first k surviving rows: rows · data = received.
	rows := make([][]byte, 0, c.K)
	rhs := make([][]byte, 0, c.K)
	for i := 0; i < len(shards) && len(rows) < c.K; i++ {
		if shards[i] != nil {
			rows = append(rows, append([]byte(nil), c.matrix[i]...))
			rhs = append(rhs, shards[i])
		}
	}
	if err := gfInvertMatrix(rows); err != nil {
		return fmt.Errorf("coding: RS decode matrix: %w", err)
	}
	data := make([][]byte, c.K)
	for i := range data {
		data[i] = make([]byte, size)
	}
	gfMatMul(data, rhs, rows)
	for i := 0; i < c.K; i++ {
		if shards[i] == nil {
			shards[i] = data[i]
		}
	}
	return nil
}

// checkShards validates a shard slice: want entries, all non-nil, equal
// non-zero lengths.
func (c *RS) checkShards(shards [][]byte, want int) error {
	if len(shards) != want {
		return fmt.Errorf("coding: got %d shards, want %d", len(shards), want)
	}
	size := -1
	for i, s := range shards {
		if s == nil {
			return fmt.Errorf("coding: shard %d is nil", i)
		}
		if size < 0 {
			size = len(s)
		} else if len(s) != size {
			return fmt.Errorf("coding: shard lengths differ (%d vs %d)", size, len(s))
		}
	}
	if size < 1 {
		return fmt.Errorf("coding: empty shards")
	}
	return nil
}
