package phy

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/cmplx"
	"testing"

	"witag/internal/dot11"
	"witag/internal/stats"
)

// goldenChainDigest is the SHA-256 that TestBitTrueChainGolden computes
// over Transmit waveforms and Receive results. It was computed by running
// this test, unchanged, at commit 0a47d00 — before Transmit and Receive
// moved to shared tables, per-frame buffers and bit-packed Viterbi
// survivors — so it pins that every output of the chain stayed
// bit-identical. On a mismatch the test prints the digest it computed.
const goldenChainDigest = "d8c91797a348829c49f2e28cd7128ab344b26574c2a53265dd58087a042a6827"

// goldenChannel is a static two-path channel plus a tag term that is
// present only for data symbols 4–7, so the stale-CSI corruption path is
// part of the pinned output.
func goldenChannel(sym, sc int) complex128 {
	h := 1 + 0.3*cmplx.Exp(complex(0, 0.15*float64(sc)))
	if sym >= 6 && sym < 10 { // two LTF repeats come first
		h += 0.2 * cmplx.Exp(complex(0, 0.4*float64(sc)+1))
	}
	return h
}

func hashComplex(h hash.Hash, syms [][]complex128) {
	var b [16]byte
	for _, sym := range syms {
		for _, v := range sym {
			binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(v)))
			binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(v)))
			h.Write(b[:])
		}
	}
}

// TestBitTrueChainGolden hashes every output of the bit-true chain — the
// transmitted LTF and data symbols, and Receive's PSDU, per-symbol EVM,
// recovered scrambler seed and coded bit errors (or its error), with hard
// and soft decisions — for HT MCS 0–7 at 20 and 40 MHz and three SNRs.
func TestBitTrueChainGolden(t *testing.T) {
	h := sha256.New()
	var b [8]byte
	for _, w := range []dot11.ChannelWidth{dot11.Width20, dot11.Width40} {
		for m := 0; m < 8; m++ {
			for _, snr := range []float64{4, 12, 30} {
				cfg := DefaultConfig()
				mcs, err := dot11.HTMCS(m)
				if err != nil {
					t.Fatal(err)
				}
				cfg.MCS, cfg.Width = mcs, w
				rng := stats.NewRNG(int64(1000*int(w) + 100*m + int(snr)))
				psdu := stats.RandomBytes(rng, 120)
				wf, err := Transmit(psdu, cfg)
				if err != nil {
					t.Fatal(err)
				}
				hashComplex(h, wf.LTF)
				hashComplex(h, wf.Symbols)
				rx := ApplyChannel(wf, goldenChannel, 1/SNRFromDb(snr), rng)
				csi, err := EstimateCSI(rx.LTF)
				if err != nil {
					t.Fatal(err)
				}
				for _, soft := range []bool{false, true} {
					res, err := Receive(rx, csi, soft)
					if err != nil {
						fmt.Fprintf(h, "err:%v;", err)
						continue
					}
					fmt.Fprintf(h, "%x|%d|%d|", res.PSDU, res.ScramblerSeed, res.CodedBitErrs)
					for _, e := range res.SymbolEVM {
						binary.LittleEndian.PutUint64(b[:], math.Float64bits(e))
						h.Write(b[:])
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenChainDigest {
		t.Fatalf("bit-true chain digest = %s, want %s", got, goldenChainDigest)
	}
}
