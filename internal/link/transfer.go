package link

import (
	"context"
	"fmt"

	"witag/internal/channel"
	"witag/internal/core"
	"witag/internal/obs"
)

// Transferer runs reliable transfers over one deployment. Like the
// core.System it drives, it is not safe for concurrent use; parallel
// campaigns build one per trial.
type Transferer struct {
	// Controller adapts the coding; use NewFixedController for a no-ARQ
	// or no-adaptation baseline.
	Controller *CodingController

	c Carrier
}

// NewTransferer wires a transfer loop over sys; env, when non-nil,
// advances before every query round. The policy's RetryBudget bounds the
// retries and its backoff paces them; seed jitters the backoff (see
// NewCarrier).
func NewTransferer(sys *core.System, env *channel.Environment, pol Policy, cc *CodingController, seed int64) *Transferer {
	return &Transferer{Controller: cc, c: NewCarrier(sys, env, pol, seed)}
}

// Send moves payload tag→client reliably: segment, query, verify each
// frame's CRC, selectively re-query failed ranges, back off after round
// erasures, and adapt coding to the observed frame-error rate. It returns
// the transfer's stats; Delivered is false when the retry budget runs out
// (that is an outcome, not an error — errors are reserved for broken
// configuration or a cancelled context).
func (t *Transferer) Send(ctx context.Context, payload []byte) (*Stats, error) {
	c := &t.c
	if c.sys == nil || t.Controller == nil {
		return nil, fmt.Errorf("link: transferer needs a system and a controller")
	}
	st, err := c.Begin("arq", payload)
	if err != nil {
		return nil, err
	}
	defer func() {
		st.FinalLevel = t.Controller.Index()
		c.Finish()
	}()
	rx := &Reassembler{}
	pending := splitRanges([]segment{{0, len(payload)}}, t.Controller.Level().SegBytes)
	budget := c.pol.RetryBudget

	for len(pending) > 0 {
		seg := pending[0]
		lvl := t.Controller.Level()
		// The controller may have shortened segments since this range was
		// queued; re-split it in place, keeping already-delivered ranges
		// untouched (offsets, not sequence numbers, make this free).
		if seg.len() > lvl.SegBytes {
			pending = append(splitRanges([]segment{seg}, lvl.SegBytes), pending[1:]...)
			continue
		}
		v, err := t.attempt(ctx, payload, seg, lvl, rx)
		if err != nil {
			return st, err
		}
		if v == FrameOK {
			pending = pending[1:]
			continue
		}
		if budget <= 0 {
			return st, nil // undelivered
		}
		budget--
		st.Retries++
		if v == FrameErased {
			wait := c.Backoff()
			if o := c.sys.Obs; o != nil {
				o.Link.BackoffWaits.Inc()
				o.Link.BackoffWait.Observe(wait.Microseconds())
			}
		}
		// Selective repeat: rotate the failed range to the back so the
		// rest of the transfer progresses while this patch of channel
		// time is bad.
		pending = append(pending[1:], seg)
	}

	got, err := rx.Payload()
	if err != nil {
		return st, fmt.Errorf("link: all segments acknowledged but %w", err)
	}
	st.Received = got
	st.Delivered = true
	return st, nil
}

// attempt carries one segment as one frame at the current coding level,
// checks its header against the range queried, and feeds the verdict to
// the coding controller (round erasures say nothing about coding).
func (t *Transferer) attempt(ctx context.Context, payload []byte, seg segment, lvl Level, rx *Reassembler) (Verdict, error) {
	c := &t.c
	got, corrected, v, err := c.Carry(ctx, lvl.Codec, buildFrame(payload, seg))
	if err != nil {
		return v, err
	}
	if v == FrameOK {
		off, total, chunk, perr := parseFrame(got)
		if perr != nil || off != seg.start || total != len(payload) || len(chunk) != seg.len() {
			// The CRC passed but the header disagrees with what we queried —
			// residual corruption that happened to keep the checksum valid.
			c.st.ResidualErrors++
			v = FrameResidual
		} else {
			if err := rx.Add(off, total, chunk); err != nil {
				return v, err
			}
			c.st.CorrectedBits += corrected
		}
	}
	if v != FrameErased {
		before := t.Controller.Index()
		t.Controller.Observe(v == FrameOK)
		if o := c.sys.Obs; o != nil {
			if after := t.Controller.Index(); after > before {
				o.Link.LadderUp.Inc()
			} else if after < before {
				o.Link.LadderDown.Inc()
			}
		}
	}
	c.Trace(obs.Event{Kind: "segment", Offset: seg.start, Length: seg.len(), Level: t.Controller.Index(), Outcome: v.Outcome()})
	return v, nil
}
