package phy

import (
	"math"
	"math/cmplx"
	"testing"

	"witag/internal/stats"
)

// refDistortionAfterCPE keeps the implementation DistortionAfterCPE had
// while it stored every g_k = hTrue_k/hEst_k in a per-call slice. The
// equivalence test requires the two-pass form to return exactly the same
// float64 bits.
func refDistortionAfterCPE(hTrue, hEst []complex128) float64 {
	g := make([]complex128, len(hTrue))
	var mean complex128
	for k := range hTrue {
		den := hEst[k]
		if den == 0 {
			den = 1e-12
		}
		g[k] = hTrue[k] / den
		mean += g[k]
	}
	mean /= complex(float64(len(g)), 0)
	cpe := complex128(1)
	if mean != 0 {
		cpe = cmplx.Exp(complex(0, -cmplx.Phase(mean)))
	}
	var d float64
	for _, gk := range g {
		e := gk*cpe - 1
		d += real(e)*real(e) + imag(e)*imag(e)
	}
	return d / float64(len(g))
}

func TestDistortionAfterCPEMatchesReference(t *testing.T) {
	rng := stats.NewRNG(41)
	randC := func(scale float64) complex128 {
		return complex(scale*rng.NormFloat64(), scale*rng.NormFloat64())
	}
	check := func(name string, hTrue, hEst []complex128) {
		t.Helper()
		got, err := DistortionAfterCPE(hTrue, hEst)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := refDistortionAfterCPE(hTrue, hEst); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: %v (bits %#x), reference %v (bits %#x)", name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(114)
		hTrue, hEst := make([]complex128, n), make([]complex128, n)
		scale := math.Pow(10, rng.Float64()*8-6)
		for k := range hTrue {
			hEst[k] = randC(scale)
			// Mostly a perturbed copy, as a tag's reflection makes it.
			hTrue[k] = hEst[k] + randC(scale*rng.Float64())
			if rng.Intn(10) == 0 {
				hEst[k] = 0 // a null in the estimate
			}
		}
		check("random", hTrue, hEst)
	}
	// mean == 0: the g_k cancel exactly, so no CPE is removed.
	check("zero mean", []complex128{1, -1, 2i, -2i}, []complex128{1, 1, 1, 1})
	est := make([]complex128, 52)
	for k := range est {
		est[k] = complex(float64(k+1), 0)
	}
	check("all-zero true channel", make([]complex128, len(est)), est)
	check("all-zero estimate", []complex128{1, 1i, -1, 0.5}, make([]complex128, 4))
	check("zero channels", make([]complex128, 8), make([]complex128, 8))
}
