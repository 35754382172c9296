package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"witag/internal/channel"
	"witag/internal/core"
	"witag/internal/dot11"
	"witag/internal/fault"
	"witag/internal/mac"
	"witag/internal/phy"
	"witag/internal/sim"
	"witag/internal/stats"
	"witag/internal/tag"
	"witag/internal/traffic"
)

// streams are a world's fault injector and traffic generator (nil where
// the world has none). The probes drive private copies, seeded like the
// world's own: QueryRound draws from each stream in a fixed order whatever
// the round's outcome, so a copy driven with the same calls per round
// replays the original's draws without touching it.
type streams struct {
	faults  *fault.Injector
	traffic *traffic.Generator
}

// tracedRounds is sim.MeasureRun with a span around every call into a
// layer and the per-round probes after each QueryRound. It returns the
// same RunStats sim.MeasureRun returns for the same inputs.
func tracedRounds(ctx context.Context, rec *recorder, parent int32, sys *core.System, env *channel.Environment, rounds int, seed int64, sh streams) (sim.RunStats, error) {
	rng := stats.NewRNG(seed)
	var rs sim.RunStats
	detected := 0
	for r := 0; r < rounds; r++ {
		if err := ctx.Err(); err != nil {
			return rs, err
		}
		sp := rec.begin(lAdvance, parent)
		env.Advance(0.05)
		rec.end(sp, 1)
		bits := stats.RandomBits(rng, sys.Spec.DataLen)
		// Copies of the state QueryRound mutates and the probes need as
		// it was at the start of the round.
		sched, sw := *sys.Scheduler, *sys.Tag.Switch
		sp = rec.begin(lRound, parent)
		res, err := sys.QueryRound(bits)
		rec.end(sp, 1)
		if err != nil {
			return rs, err
		}
		if err := probeRound(rec, sp, sys, &sched, &sw, res, sh); err != nil {
			return rs, err
		}
		rs.Errors += res.BitErrors
		rs.Bits += len(res.TxBits)
		rs.Airtime += res.Airtime
		if res.Detected {
			detected++
		}
	}
	if rs.Bits > 0 {
		rs.BER = float64(rs.Errors) / float64(rs.Bits)
	}
	if rounds > 0 {
		rs.DetectionRate = float64(detected) / float64(rounds)
	}
	return rs, nil
}

// probeRound re-runs, one layer at a time, the work QueryRound just did
// inside itself, with the round's inputs and on copies of any state the
// calls mutate. Draws QueryRound takes from private RNGs (trigger
// detection, subframe survival, clock jitter) are not repeated: the
// probes take the round's outcome from res instead.
func probeRound(rec *recorder, round int32, sys *core.System, sched *mac.AMPDUScheduler, sw *tag.AntennaSwitch, res *core.RoundResult, sh streams) error {
	spec := sys.Spec
	overhead := 0
	if sys.Cipher != nil {
		overhead = sys.Cipher.Overhead()
	}

	sp := rec.begin(lAMPDU, round)
	agg, startSeq, err := spec.BuildQuery(sched)
	if err != nil {
		return err
	}
	psdu, err := agg.Marshal()
	rec.end(sp, 1)
	if err != nil {
		return err
	}
	rec.count(cPSDUBytes, float64(len(psdu)))

	airs, err := spec.SubframeAirtimes(overhead)
	if err != nil {
		return err
	}
	sp = rec.begin(lDetect, round)
	timing, err := detectProbe(sys, airs[:spec.TriggerLen])
	rec.end(sp, 1)
	if err != nil {
		return err
	}

	sp = rec.begin(lEval, round)
	hRest, hFlip, err := evalProbe(sys, sw)
	rec.end(sp, 2)
	if err != nil {
		return err
	}
	snr := channel.SNRLinear(sys.Env.TxPowerDbm, channel.MeanPower(hRest), sys.Env.NoiseFloorDbm)
	sp = rec.begin(lDistortion, round)
	distortion, err := phy.DistortionAfterCPE(hFlip, hRest)
	rec.end(sp, 1)
	if err != nil {
		return err
	}
	dirtySINR := phy.EffectiveSINR(snr, distortion)

	coverage := make([]float64, spec.DataLen)
	if res.Detected {
		sp = rec.begin(lCoverage, round)
		coverage, err = sys.Tag.CorruptionCoverageSchedule(timing, res.TxBits, airs[spec.TriggerLen:], sys.TempC)
		rec.end(sp, 1)
		if err != nil {
			return err
		}
	}

	if sh.traffic != nil {
		sp = rec.begin(lTraffic, round)
		sh.traffic.RoundMask(spec.Total())
		rec.end(sp, 1)
	}
	if sh.faults != nil {
		sp = rec.begin(lFault, round)
		sh.faults.TriggerMissed()
		start, length, active := sh.faults.BrownoutWindow(spec.DataLen)
		for i := 0; i < spec.Total(); i++ {
			sh.faults.SubframeLost()
		}
		sh.faults.BALost()
		rec.end(sp, spec.Total()+3)
		// As in QueryRound, a browned-out switch corrupts nothing in its
		// window, so those subframes take only the clean SINR.
		if active && res.Detected {
			for i := start; i < start+length; i++ {
				coverage[i] = 0
			}
		}
	}

	sp = rec.begin(lLinkModel, round)
	calls, err := linkModelProbe(spec, overhead, snr, dirtySINR, coverage)
	rec.end(sp, calls)
	if err != nil {
		return err
	}

	sp = rec.begin(lScoreboard, round)
	err = scoreboardProbe(spec, sched, startSeq, res.RxBits)
	rec.end(sp, 1)
	return err
}

// detectProbe is the tag's trigger-detection arithmetic for one round:
// the detection probability of the trigger envelope at the tag. The tick
// count is the jitter-free one, since the clock's jitter draw belongs to
// the system's own stream.
func detectProbe(sys *core.System, trigAirs []time.Duration) (tag.QueryTiming, error) {
	var trig time.Duration
	for _, a := range trigAirs {
		trig += a
	}
	subAir := trig / time.Duration(len(trigAirs))
	clk := sys.Tag.Clock
	ticks := int(subAir.Seconds()*clk.EffectiveHz(sys.TempC) + 0.5)
	if grid := int(core.ProtocolGrid.Seconds()*clk.NominalHz + 0.5); grid >= 1 && ticks >= grid/2 {
		ticks = max((ticks+grid/2)/grid, 1) * grid
	}
	if ticks < 1 {
		return tag.QueryTiming{}, fmt.Errorf("perfbench: trigger subframe shorter than a tag tick")
	}
	env := sys.Env
	aPath, err := channel.FriisAmplitude(sys.ClientPos.Dist(sys.TagPos), env.FreqHz, env.PathLossExp)
	if err != nil {
		return tag.QueryTiming{}, err
	}
	aPath *= channel.DbToAmplitude(-channel.PathAttenuationDb(env.Walls, sys.ClientPos, sys.TagPos))
	sqrtPtx := math.Sqrt(channel.DbmToWatts(env.TxPowerDbm))
	hi := sqrtPtx * aPath * core.EnvelopeAmplitudeFor(core.TriggerHighByte)
	lo := sqrtPtx * aPath * core.EnvelopeAmplitudeFor(core.TriggerLowByte)
	noiseStd := math.Sqrt(channel.DbmToWatts(env.NoiseFloorDbm)) * sys.DetectorNoiseFigure
	if _, err := tag.DetectionProbability(hi, lo, (hi+lo)/2, noiseStd, ticks, len(trigAirs)); err != nil {
		return tag.QueryTiming{}, err
	}
	return tag.QueryTiming{DataStartTick: ticks * len(trigAirs), SubframeTicks: ticks}, nil
}

// evalProbe evaluates the round's two channel states, rest and flipped,
// with the tag's reflection taken from a copy of its switch.
func evalProbe(sys *core.System, sw *tag.AntennaSwitch) (hRest, hFlip []complex128, err error) {
	refl := func(s tag.SwitchState) (*channel.TagReflection, error) {
		if err := sw.Set(s); err != nil {
			return nil, err
		}
		return &channel.TagReflection{Pos: sys.TagPos, Coeff: sw.ReflectionCoeff(), ExcessPathM: sys.Tag.ExcessPathM()}, nil
	}
	rest, err := refl(sys.Tag.RestState)
	if err != nil {
		return nil, nil, err
	}
	if hRest, err = sys.Env.Channel(sys.ClientPos, sys.APPos, rest); err != nil {
		return nil, nil, err
	}
	flip, err := refl(sys.Tag.FlipState)
	if err != nil {
		return nil, nil, err
	}
	hFlip, err = sys.Env.Channel(sys.ClientPos, sys.APPos, flip)
	return hRest, hFlip, err
}

// linkModelProbe makes the round's SubframeSuccessProb calls: each
// subframe's bits split between the clean and the corrupted SINR by the
// tag's coverage. It returns the number of calls.
func linkModelProbe(spec core.QuerySpec, overhead int, clean, dirty float64, coverage []float64) (int, error) {
	calls := 0
	for i := 0; i < spec.Total(); i++ {
		f := 0.0
		if i >= spec.TriggerLen {
			f = math.Min(math.Max(coverage[i-spec.TriggerLen], 0), 1)
		}
		subBits := onAirBytes(spec, i, overhead) * 8
		cleanBits := int(math.Round(float64(subBits) * (1 - f)))
		for _, part := range []struct {
			sinr float64
			bits int
		}{{clean, cleanBits}, {dirty, subBits - cleanBits}} {
			if part.bits <= 0 {
				continue
			}
			if _, err := phy.SubframeSuccessProb(spec.MCS, part.sinr, part.bits); err != nil {
				return calls, err
			}
			calls++
		}
	}
	return calls, nil
}

// onAirBytes is subframe i's A-MPDU footprint: delimiter, QoS header,
// payload, cipher expansion and FCS, padded to the 4-byte grid.
func onAirBytes(spec core.QuerySpec, i, overhead int) int {
	payload := 1
	if spec.PayloadSizes != nil {
		payload = spec.PayloadSizes[i]
	}
	n := dot11.DelimiterLen + dot11.QoSHeaderLen + payload + overhead + 4
	return (n + 3) / 4 * 4
}

// scoreboardProbe rebuilds the AP's scoreboard and block ACK from the
// round's bitmap (trigger subframes counted as received) and reads the
// tag bits back out.
func scoreboardProbe(spec core.QuerySpec, sched *mac.AMPDUScheduler, startSeq uint16, rxBits []byte) error {
	sb, err := mac.NewScoreboard(startSeq)
	if err != nil {
		return err
	}
	for i := 0; i < spec.Total(); i++ {
		if i >= spec.TriggerLen && (rxBits == nil || rxBits[i-spec.TriggerLen] == 0) {
			continue
		}
		if err := sb.Record((startSeq + uint16(i)) & 0x0FFF); err != nil {
			return err
		}
	}
	_, err = sb.BlockAck(sched.Src, sched.Dst, 0).BitmapBits(spec.Total())
	return err
}
