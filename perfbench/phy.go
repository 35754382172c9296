package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"witag/internal/bitio"
	"witag/internal/dot11"
	"witag/internal/phy"
	"witag/internal/sim"
	"witag/internal/stats"
)

// --- bittrue_phy: the bit-true OFDM chain over an MCS × SNR grid. ---

// phyCenters is, per HT MCS 0–7, the SNR in dB at which about half of
// phyPSDU-byte frames decode on a flat channel with hard-decision
// Viterbi. The grid spans ±8 dB around it in 4 dB steps: wider than the
// waterfall, so frame success saturates at both ends and a step holds at
// most one point inside the waterfall.
var (
	phyCenters = [8]float64{2.5, 6.5, 8, 11.5, 14, 19, 20, 21}
	phyOffsets = []float64{-8, -4, 0, 4, 8}
)

const (
	phyFrames = 12 // frames per grid cell
	phyPSDU   = 40 // PSDU bytes: one short MPDU
)

// phyCell is one grid point's result.
type phyCell struct {
	MCS     int
	SNRdB   float64
	OK      int    // frames decoded intact
	Decoded string // hash of every decoded PSDU, in order
}

func runPHY(ctx context.Context, seed int64, workers int) (outcome, error) {
	return phyGrid(ctx, seed, workers, nil)
}

func tracedPHY(ctx context.Context, seed int64, workers int, p *pass) (outcome, error) {
	return phyGrid(ctx, seed, workers, p)
}

func warmPHY(ctx context.Context) error {
	_, err := phyCells(ctx, warmSeed, 1, nil, []float64{0}, 1)
	return err
}

// phyGrid runs the grid and checks that, per MCS, frame success never
// falls as SNR rises, is zero at the bottom of the grid and complete at
// the top.
func phyGrid(ctx context.Context, seed int64, workers int, p *pass) (outcome, error) {
	cells, err := phyCells(ctx, seed, workers, p, phyOffsets, phyFrames)
	if err != nil {
		return outcome{}, err
	}
	d, err := digest(cells)
	return outcome{digest: d, rounds: len(cells) * phyFrames, checkErr: checkPHYGrid(cells)}, err
}

func checkPHYGrid(cells []phyCell) error {
	for i, c := range cells {
		j := i % len(phyOffsets)
		switch {
		case j == 0 && c.OK != 0:
			return fmt.Errorf("perfbench: MCS %d decoded %d frames at %.1f dB, the bottom of its grid", c.MCS, c.OK, c.SNRdB)
		case j == len(phyOffsets)-1 && c.OK != phyFrames:
			return fmt.Errorf("perfbench: MCS %d lost %d frames at %.1f dB, the top of its grid", c.MCS, phyFrames-c.OK, c.SNRdB)
		case j > 0 && c.OK < cells[i-1].OK:
			return fmt.Errorf("perfbench: MCS %d frame success fell from %d to %d between %.1f and %.1f dB",
				c.MCS, cells[i-1].OK, c.OK, cells[i-1].SNRdB, c.SNRdB)
		}
	}
	return nil
}

// phyCells runs Transmit → ApplyChannel → EstimateCSI → Receive for
// frames frames per grid cell (each MCS at its centre SNR plus each of
// offsets), one cell per runner work item, each cell drawing from its own
// labeled seed.
func phyCells(ctx context.Context, seed int64, workers int, p *pass, offsets []float64, frames int) ([]phyCell, error) {
	flat := func(sym, sc int) complex128 { return 1 }
	return sim.Map(ctx, sim.Runner{Workers: workers}, len(phyCenters)*len(offsets), func(ctx context.Context, i int) (phyCell, error) {
		m := i / len(offsets)
		cell := phyCell{MCS: m, SNRdB: phyCenters[m] + offsets[i%len(offsets)]}
		mcs, err := dot11.HTMCS(m)
		if err != nil {
			return cell, err
		}
		cfg := phy.DefaultConfig()
		cfg.MCS = mcs
		noiseVar := 1 / phy.SNRFromDb(cell.SNRdB)
		rng := stats.NewRNG(stats.SubSeed(seed, "bittrue", fmt.Sprintf("mcs=%d", m), fmt.Sprintf("snr=%g", cell.SNRdB)))
		h := sha256.New()
		rec := p.recorder()
		trial := rec.begin(lTrial, -1)
		for f := 0; f < frames; f++ {
			if err := ctx.Err(); err != nil {
				return cell, err
			}
			psdu := stats.RandomBytes(rng, phyPSDU)
			sp := rec.begin(lTransmit, trial)
			wf, err := phy.Transmit(psdu, cfg)
			rec.end(sp, 1)
			if err != nil {
				return cell, err
			}
			sp = rec.begin(lApplyChannel, trial)
			rx := phy.ApplyChannel(wf, flat, noiseVar, rng)
			rec.end(sp, 1)
			sp = rec.begin(lEstimateCSI, trial)
			csi, err := phy.EstimateCSI(rx.LTF)
			rec.end(sp, 1)
			if err != nil {
				return cell, err
			}
			sp = rec.begin(lReceive, trial)
			got, err := phy.Receive(rx, csi, false)
			rec.end(sp, 1)
			// A frame the receiver rejects (noise can corrupt the SERVICE
			// bits it recovers the scrambler seed from) is a lost frame.
			var decoded []byte
			if err == nil {
				decoded = got.PSDU
			}
			if rec != nil {
				if err := viterbiProbe(rec, trial, psdu, cfg); err != nil {
					return cell, err
				}
			}
			if bytes.Equal(decoded, psdu) {
				cell.OK++
				rec.count(cFramesOK, 1)
			}
			fmt.Fprintf(h, "%d:%x;", len(decoded), decoded)
		}
		rec.end(trial, 1)
		cell.Decoded = hex.EncodeToString(h.Sum(nil))
		return cell, nil
	})
}

// viterbiProbe decodes the frame's own rate-1/2 mother code: the PSDU
// framed, scrambled and encoded as Transmit does, punctured to the MCS
// rate and depunctured again, so only the decoder itself is timed.
func viterbiProbe(rec *recorder, parent int32, psdu []byte, cfg phy.Config) error {
	nbits := cfg.NumSymbols(len(psdu)) * cfg.MCS.DataBitsPerSymbol(cfg.Width)
	bits := make([]byte, 16, nbits)
	bits = append(bits, bitio.BytesToBits(psdu)...)
	bits = append(bits, make([]byte, nbits-len(bits))...)
	scrambled, err := phy.Scramble(bits, cfg.ScramblerSeed)
	if err != nil {
		return err
	}
	for i := 0; i < 6; i++ {
		scrambled[16+8*len(psdu)+i] = 0 // tail: flush the encoder to state 0
	}
	coded := phy.ConvEncode(scrambled)
	punctured, err := phy.Puncture(coded, cfg.MCS.CodeRate)
	if err != nil {
		return err
	}
	mother, err := phy.Depuncture(punctured, cfg.MCS.CodeRate, len(coded))
	if err != nil {
		return err
	}
	sp := rec.begin(lViterbi, parent)
	_, err = phy.ViterbiDecode(mother)
	rec.end(sp, 1)
	return err
}
