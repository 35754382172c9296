package phy

import (
	"bytes"
	"math"
	"testing"

	"witag/internal/stats"
)

// The reference decoders below keep the byte-per-state survivor table
// ([n][64]uint8, input bit in bit 6, predecessor in bits 0–5) that
// ViterbiDecode and ViterbiDecodeSoft used before their survivors were
// bit-packed. The equivalence tests require the packed decoders to return
// exactly the same bits on every input.

func refViterbiDecode(coded []byte) []byte {
	n := len(coded) / 2
	if n == 0 {
		return nil
	}
	const inf = math.MaxInt32 / 2
	metric := make([]int32, convStates)
	next := make([]int32, convStates)
	for s := 1; s < convStates; s++ {
		metric[s] = inf
	}
	survivors := make([][convStates]uint8, n)
	for t := 0; t < n; t++ {
		c0, c1 := coded[2*t], coded[2*t+1]
		for s := range next {
			next[s] = inf
		}
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
					survivors[t][ns] = uint8(in<<6) | uint8(s)&0x3F
				}
			}
		}
		metric, next = next, metric
	}
	best := 0
	for s := 1; s < convStates; s++ {
		if metric[s] < metric[best] {
			best = s
		}
	}
	out := make([]byte, n)
	state := best
	for t := n - 1; t >= 0; t-- {
		sv := survivors[t][state]
		out[t] = sv >> 6 & 1
		state = int(sv & 0x3F)
	}
	return out
}

func refViterbiDecodeSoft(llr []float64) []byte {
	n := len(llr) / 2
	if n == 0 {
		return nil
	}
	inf := math.Inf(1)
	metric := make([]float64, convStates)
	next := make([]float64, convStates)
	for s := 1; s < convStates; s++ {
		metric[s] = inf
	}
	survivors := make([][convStates]uint8, n)
	for t := 0; t < n; t++ {
		l0, l1 := llr[2*t], llr[2*t+1]
		for s := range next {
			next[s] = inf
		}
		for s := 0; s < convStates; s++ {
			if math.IsInf(metric[s], 1) {
				continue
			}
			for in := 0; in < 2; in++ {
				o := convOutputs[s][in]
				bm := 0.0
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
					survivors[t][ns] = uint8(in<<6) | uint8(s)&0x3F
				}
			}
		}
		metric, next = next, metric
	}
	best := 0
	for s := 1; s < convStates; s++ {
		if metric[s] < metric[best] {
			best = s
		}
	}
	out := make([]byte, n)
	state := best
	for t := n - 1; t >= 0; t-- {
		sv := survivors[t][state]
		out[t] = sv >> 6 & 1
		state = int(sv & 0x3F)
	}
	return out
}

// viterbiEquivalenceLengths covers trellises shorter than the six steps
// a state needs to be reachable from every other, a few around that, and
// frame-sized ones.
var viterbiEquivalenceLengths = []int{1, 2, 3, 5, 6, 7, 13, 64, 300, 2000}

func TestViterbiDecodeMatchesReference(t *testing.T) {
	rng := stats.NewRNG(41)
	for _, steps := range viterbiEquivalenceLengths {
		for _, flipP := range []float64{0, 0.02, 0.1, 0.3, 0.5} {
			for rep := 0; rep < 4; rep++ {
				coded := ConvEncode(stats.RandomBits(rng, steps))
				for i := range coded {
					switch {
					case stats.Bernoulli(rng, 0.15):
						coded[i] = erasure
					case stats.Bernoulli(rng, flipP):
						coded[i] ^= 1
					}
				}
				got, err := ViterbiDecode(coded)
				if err != nil {
					t.Fatal(err)
				}
				if want := refViterbiDecode(coded); !bytes.Equal(got, want) {
					t.Fatalf("steps=%d flip=%g rep=%d: packed decoder %v, reference %v", steps, flipP, rep, got, want)
				}
			}
		}
	}
}

func TestViterbiDecodeSoftMatchesReference(t *testing.T) {
	rng := stats.NewRNG(43)
	for _, steps := range viterbiEquivalenceLengths {
		for _, sigma := range []float64{0, 0.3, 1, 3} {
			for rep := 0; rep < 4; rep++ {
				coded := ConvEncode(stats.RandomBits(rng, steps))
				llr := make([]float64, len(coded))
				for i, c := range coded {
					if stats.Bernoulli(rng, 0.15) {
						continue // erasure: zero metric
					}
					// Quantise some metrics so equal path metrics — and
					// with them the tie-breaking rule — occur.
					v := 1 - 2*float64(c) + sigma*rng.NormFloat64()
					if rep%2 == 0 {
						v = math.Round(v)
					}
					llr[i] = v
				}
				got, err := ViterbiDecodeSoft(llr)
				if err != nil {
					t.Fatal(err)
				}
				if want := refViterbiDecodeSoft(llr); !bytes.Equal(got, want) {
					t.Fatalf("steps=%d sigma=%g rep=%d: packed decoder %v, reference %v", steps, sigma, rep, got, want)
				}
			}
		}
	}
}
