package link

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"witag/internal/channel"
	"witag/internal/core"
	"witag/internal/obs"
	"witag/internal/stats"
)

// The frame carrier is the one engine under every transfer scheme:
// selective-repeat ARQ (transfer.go) and the fountain and Reed-Solomon
// transferers in internal/coding are plain outer loops over Carry. Each
// frame rides in one CRC-protected core.Codec frame spanning however
// many query rounds its bits need, so all schemes compare over identical
// worlds and share one Stats, one backoff and one trace identity.

// stepS is the scatterer motion simulated before every query round, the
// same fading dynamics sim.MeasureRun applies.
const stepS = 0.05

// Policy bounds a transfer's retries and paces its backoff.
type Policy struct {
	// RetryBudget is the total failed frame attempts ARQ tolerates across
	// the whole transfer before giving up. 0 disables ARQ entirely: every
	// segment gets exactly one attempt (the robustness baseline). The
	// coded schemes ignore it.
	RetryBudget int
	// BackoffBase is the wait after the first round erasure (missed
	// trigger or lost block ACK); consecutive erasures double it up to
	// BackoffCap. Frame CRC failures retry immediately — the channel
	// answered, it just answered garbage — so backoff only throttles the
	// cases where blasting again into ongoing interference wastes air.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// JitterFrac spreads each backoff by ±this fraction, drawn from the
	// carrier's labeled RNG, so co-located queriers don't resynchronise
	// their retries.
	JitterFrac float64
}

// DefaultPolicy is the pacing every scheme uses and the robustness
// experiment's ARQ configuration.
func DefaultPolicy() Policy {
	return Policy{
		RetryBudget: 96,
		BackoffBase: 2 * time.Millisecond,
		BackoffCap:  32 * time.Millisecond,
		JitterFrac:  0.25,
	}
}

// Stats reports one transfer of any scheme.
type Stats struct {
	Delivered    bool
	PayloadBytes int
	// Received is the reassembled payload when Delivered.
	Received []byte `json:"-"`

	FramesSent int // frames put on the air, including failures
	Rounds     int // query rounds on the air
	// Retries counts failed frames the transfer went on past: retried
	// within budget (ARQ), or every lost symbol/shard (coded schemes).
	Retries        int
	RoundFailures  int // frames erased by a missed trigger or lost BA
	DesyncErrors   int // decode failures: sync/short/length (framing lost)
	ResidualErrors int // decode failures: CRC or uncorrectable FEC, or a CRC-passing bad header
	CorrectedBits  int // FEC corrections across delivered ARQ frames
	FinalLevel     int // ARQ coding rung at the end of the transfer

	DecodeAttempts int // peeling passes (fountain) / reconstructions (RS)
	ParityResizes  int // GuardRider adaptation events (RS only)
	FinalK, FinalN int // last block geometry (RS only)

	BackoffWait time.Duration
	Airtime     time.Duration // on-air time plus backoff waits
}

// FrameErrors counts frames lost to a decode failure or a bad header.
func (s *Stats) FrameErrors() int { return s.DesyncErrors + s.ResidualErrors }

// GoodputBps returns delivered payload bits per second of airtime
// (0 when the transfer failed).
func (s *Stats) GoodputBps() float64 {
	if !s.Delivered || s.Airtime <= 0 {
		return 0
	}
	return float64(s.PayloadBytes*8) / s.Airtime.Seconds()
}

// Verdict classifies one carried frame.
type Verdict int

const (
	FrameOK       Verdict = iota
	FrameErased           // a round was erased: missed trigger or lost BA
	FrameDesync           // decode failure: framing lost
	FrameResidual         // decode failure, or corruption that kept the CRC valid
)

// Outcome is the verdict's trace-event name.
func (v Verdict) Outcome() string {
	return [...]string{"ok", "erased", "frame_error", "frame_error"}[v]
}

// Carrier puts one scheme's frames on the air over one deployment and
// accounts for them. It reports into its system's observer under the
// system's trace identity. Like the core.System it drives, it is not
// safe for concurrent use.
type Carrier struct {
	sys *core.System
	env *channel.Environment
	pol Policy
	rng *rand.Rand

	// Per-transfer state, reset by Begin.
	scheme string
	st     *Stats
	erased int // consecutive erased frames
}

// NewCarrier returns a carrier over sys, for a transferer to embed by
// value; env, when non-nil, advances before every query round. Seed it
// from a labeled stats.SubSeed path — the backoff jitter is its only
// randomness, and it must never come from a shared or wall-clock source
// (DESIGN.md §8).
func NewCarrier(sys *core.System, env *channel.Environment, pol Policy, seed int64) Carrier {
	return Carrier{sys: sys, env: env, pol: pol, rng: stats.NewRNG(seed)}
}

// Begin starts one transfer of payload with the named scheme and returns
// its Stats; Finish must follow on every successful Begin.
func (c *Carrier) Begin(scheme string, payload []byte) (*Stats, error) {
	if len(payload) == 0 || len(payload) > MaxTransfer {
		return nil, fmt.Errorf("link: payload %d bytes outside [1,%d]", len(payload), MaxTransfer)
	}
	c.scheme, c.erased = scheme, 0
	c.st = &Stats{PayloadBytes: len(payload)}
	if o := c.sys.Obs; o != nil {
		if c.env != nil {
			// Attribute the pre-round Advance calls to the channel phase.
			c.env.Spans = o.Spans
		}
		if scheme == "arq" {
			o.Link.TransfersStarted.Inc()
		} else {
			o.Coding.TransfersStarted.Inc()
		}
	}
	return c.st, nil
}

// Obs returns the system's observer (nil when detached).
func (c *Carrier) Obs() *obs.Observer { return c.sys.Obs }

// Spans returns the observer's phase timers (nil when detached).
func (c *Carrier) Spans() *obs.Spans {
	if o := c.sys.Obs; o != nil {
		return o.Spans
	}
	return nil
}

// Carry encodes the frame payload fp with codec, pushes its bits through
// as many query rounds as they need and decodes the client's view. On
// FrameOK it returns the decoded payload and the FEC corrections. A lost
// block ACK or a missed trigger (the bitmap comes back all-idle; the
// simulation shortcuts the heuristic via the round's Detected flag)
// abandons the frame: the round taught nothing about coding. Errors are
// reserved for broken configuration or a cancelled context, which is
// checked before every round so a cancelled transfer never finishes a
// many-round frame.
func (c *Carrier) Carry(ctx context.Context, codec core.Codec, fp []byte) ([]byte, int, Verdict, error) {
	st, spans := c.st, c.Spans()
	sp := spans.Start()
	bits, err := codec.Encode(fp)
	if err != nil {
		return nil, 0, FrameResidual, err
	}
	spans.End(obs.PhaseCodingEncode, sp)
	st.FramesSent++
	dataLen := c.sys.Spec.DataLen
	rxBits := make([]byte, 0, len(bits))
	for off := 0; off < len(bits); off += dataLen {
		end := min(off+dataLen, len(bits))
		if err := ctx.Err(); err != nil {
			return nil, 0, FrameResidual, err
		}
		if c.env != nil {
			c.env.Advance(stepS)
		}
		res, err := c.sys.QueryRound(bits[off:end])
		if err != nil {
			return nil, 0, FrameResidual, err
		}
		sp = spans.Start()
		st.Rounds++
		st.Airtime += res.Airtime
		if res.BALost || !res.Detected {
			st.RoundFailures++
			c.erased++
			spans.End(obs.PhaseARQRound, sp)
			return nil, 0, FrameErased, nil
		}
		rxBits = append(rxBits, res.RxBits[:end-off]...)
		spans.End(obs.PhaseARQRound, sp)
	}
	c.erased = 0
	sp = spans.Start()
	got, corrected, derr := codec.Decode(rxBits)
	spans.End(obs.PhaseCodingDecode, sp)
	switch {
	case derr == nil:
		return got, corrected, FrameOK, nil
	case core.DesyncError(derr):
		st.DesyncErrors++
		return nil, 0, FrameDesync, nil
	}
	st.ResidualErrors++
	return nil, 0, FrameResidual, nil
}

// Backoff charges the wait after the current run of erased frames to
// the transfer's airtime and returns it.
func (c *Carrier) Backoff() time.Duration {
	sp := c.Spans().Start()
	wait := c.backoff(c.erased)
	c.st.BackoffWait += wait
	c.st.Airtime += wait
	c.Spans().End(obs.PhaseARQRound, sp)
	return wait
}

// backoff returns the capped exponential wait after the n-th consecutive
// round erasure, with ±JitterFrac jitter from the labeled RNG.
func (c *Carrier) backoff(n int) time.Duration {
	if c.pol.BackoffBase <= 0 {
		return 0
	}
	d := c.pol.BackoffBase
	for i := 1; i < n && d < c.pol.BackoffCap; i++ {
		d *= 2
	}
	if c.pol.BackoffCap > 0 && d > c.pol.BackoffCap {
		d = c.pol.BackoffCap
	}
	if c.pol.JitterFrac > 0 {
		j := 1 + c.pol.JitterFrac*(2*c.rng.Float64()-1)
		d = time.Duration(float64(d) * j)
	}
	return d
}

// Trace records e under the system's trace identity.
func (c *Carrier) Trace(e obs.Event) {
	if o := c.sys.Obs; o != nil {
		e.Trial, e.Labels = c.sys.TraceID, c.sys.TraceLabels
		o.Trace.Record(e)
	}
}

// Finish flushes the transfer's totals into its scheme's metric family
// (link.* for ARQ, coding.* for the coded schemes) and records the
// transfer trace event. Deferred by every Send, so live metrics and the
// trace agree with the returned Stats even on cancellation.
func (c *Carrier) Finish() {
	st := c.st
	if c.scheme != "arq" {
		st.Retries = st.RoundFailures + st.FrameErrors()
	}
	o := c.sys.Obs
	if o == nil {
		return
	}
	e := obs.Event{
		Kind: "transfer", Delivered: st.Delivered, Length: st.PayloadBytes,
		Rounds: st.Rounds, Retries: st.Retries, Level: st.FinalLevel,
		AirtimeUs: st.Airtime.Microseconds(),
	}
	if c.scheme == "arq" {
		m := o.Link
		m.SegmentsSent.Add(int64(st.FramesSent))
		m.Retries.Add(int64(st.Retries))
		m.RoundFailures.Add(int64(st.RoundFailures))
		m.DesyncErrors.Add(int64(st.DesyncErrors))
		m.ResidualErrors.Add(int64(st.ResidualErrors))
		m.CorrectedBits.Add(int64(st.CorrectedBits))
		count(st.Delivered, m.TransfersDelivered, m.TransfersFailed)
	} else {
		m := o.Coding
		m.FramesSent.Add(int64(st.FramesSent))
		m.FrameErasures.Add(int64(st.RoundFailures))
		m.FrameErrors.Add(int64(st.FrameErrors()))
		m.DecodeAttempts.Add(int64(st.DecodeAttempts))
		m.ParityResizes.Add(int64(st.ParityResizes))
		count(st.Delivered, m.TransfersDelivered, m.TransfersFailed)
		e.Outcome = c.scheme
	}
	c.Trace(e)
}

// count increments delivered or failed.
func count(ok bool, delivered, failed *obs.Counter) {
	if ok {
		delivered.Inc()
	} else {
		failed.Inc()
	}
}
