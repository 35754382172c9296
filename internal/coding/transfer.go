package coding

import (
	"context"
	"fmt"

	"witag/internal/channel"
	"witag/internal/core"
	"witag/internal/link"
	"witag/internal/obs"
	"witag/internal/stats"
)

// Transfer modes. Both transferers are outer loops over link.Carrier,
// the frame carrier under ARQ too: every encoded symbol/shard rides in
// one CRC-protected core.Codec frame spanning however many query rounds
// its bits need, so ARQ, fountain and RS compare over identical worlds
// and report the same link.Stats. Unlike ARQ, which backs off only when
// it retries, both coded modes charge a backoff on every erased frame.

// Stats is link.Stats, the one report every transfer scheme returns.
type Stats = link.Stats

// DefaultCodec is the fixed per-frame protection both coded modes use:
// SECDED with moderate interleaving, the middle rung of link's ladder.
// The codes' repair capacity lives above the frame (extra symbols,
// parity shards), so a fixed frame coding replaces link's AIMD ladder;
// SECDED is kept because without it almost no frame survives a burst
// state intact, starving the erasure layer of symbols.
func DefaultCodec() core.Codec { return core.Codec{FEC: true, InterleaveDepth: 8} }

// newCarrier wires the frame carrier of a coded transferer, its backoff
// jitter seeded from the transferer seed's "backoff" label.
func newCarrier(sys *core.System, env *channel.Environment, seed int64) link.Carrier {
	return link.NewCarrier(sys, env, link.DefaultPolicy(), stats.SubSeed(seed, "backoff"))
}

// ---------------------------------------------------------------------
// Fountain mode.

// FountainConfig parameterises the rateless transferer.
type FountainConfig struct {
	// BlockBytes is the source-block (and symbol) size; small symbols
	// keep the per-erasure loss small under round-erasure-heavy faults.
	BlockBytes int
}

// DefaultFountainConfig is the experiment operating point.
func DefaultFountainConfig() FountainConfig { return FountainConfig{BlockBytes: 12} }

// FountainTransferer moves payloads with the LT code: keep sending fresh
// encoded symbols until the peeling decoder completes. A lost symbol
// costs only the next symbol — there is no retransmission protocol.
type FountainTransferer struct {
	Config FountainConfig

	c    link.Carrier
	seed int64
}

// NewFountainTransferer wires the rateless loop over sys; seed both the
// symbol pseudo-randomness and the backoff jitter from one labeled
// stats.SubSeed path.
func NewFountainTransferer(sys *core.System, env *channel.Environment, cfg FountainConfig, seed int64) *FountainTransferer {
	return &FountainTransferer{Config: cfg, c: newCarrier(sys, env, seed), seed: seed}
}

// fountainHeader is the per-symbol frame header: the 16-bit symbol ID.
const fountainHeader = 2

// Send moves payload tag→client with transmit-until-decoded semantics.
func (t *FountainTransferer) Send(ctx context.Context, payload []byte) (*Stats, error) {
	bb := t.Config.BlockBytes
	if bb < 1 || bb+fountainHeader > core.MaxPayload {
		return nil, fmt.Errorf("coding: fountain block %dB outside [1,%d]", bb, core.MaxPayload-fountainHeader)
	}
	c := &t.c
	st, err := c.Begin("fountain", payload)
	if err != nil {
		return nil, err
	}
	defer c.Finish()
	f, err := NewFountain(len(payload), bb, stats.SubSeed(t.seed, "sym"))
	if err != nil {
		return st, err
	}
	spans, o := c.Spans(), c.Obs()

	dec := NewFountainDecoder(f)
	// The stream cap is an undeliverable-channel escape, not an operating
	// point. It never exceeds the 16-bit ID space: a wrapped ID would reach
	// the decoder as a different symbol's equation.
	maxSymbols := min(16*f.K+64, 1<<16)
	for id := 0; id < maxSymbols && !dec.Done(); id++ {
		sp := spans.Start()
		sym, err := f.Symbol(payload, id)
		if err != nil {
			return st, err
		}
		spans.End(obs.PhaseCodingEncode, sp)
		got, _, v, err := c.Carry(ctx, DefaultCodec(), append([]byte{byte(id >> 8), byte(id)}, sym...))
		if err != nil {
			return st, err
		}
		if o != nil {
			o.Coding.SymbolsSent.Inc()
		}
		if v == link.FrameErased {
			c.Backoff()
		}
		if v == link.FrameOK {
			// A CRC-passing symbol of the wrong length, or one the decoder
			// rejects, is residual corruption; the stream provides more.
			if len(got) != fountainHeader+bb {
				v = link.FrameResidual
			} else {
				sp = spans.Start()
				_, addErr := dec.Add(int(got[0])<<8|int(got[1]), got[fountainHeader:])
				spans.End(obs.PhaseCodingDecode, sp)
				if addErr != nil {
					v = link.FrameResidual
				}
			}
			if v != link.FrameOK {
				st.ResidualErrors++
			}
		}
		c.Trace(obs.Event{Kind: "symbol", Offset: id, Outcome: v.Outcome()})
	}
	st.DecodeAttempts = dec.Attempts
	if !dec.Done() {
		return st, nil // undelivered: channel worse than the symbol cap
	}
	got, err := dec.Payload()
	if err != nil {
		return st, err
	}
	st.Received = got
	st.Delivered = true
	return st, nil
}

// ---------------------------------------------------------------------
// RS mode.

// GuardRider adaptation constants of the RS transferer.
const (
	// rsWindowFrames sizes the sliding erasure-rate window (GuardRider's
	// ambient-traffic statistic); rsPriorLoss seeds it before any
	// observation.
	rsWindowFrames = 48
	rsPriorLoss    = 0.10
	// rsMarginShards is added to the expectation-sized parity budget.
	rsMarginShards = 1
	// rsMaxLoss caps the windowed estimate so the parity budget stays
	// finite on a black channel.
	rsMaxLoss = 0.75
	// rsBlockRetries is the parity waves sent after the first when fewer
	// than k shards survive.
	rsBlockRetries = 8
)

// RSConfig parameterises the adaptive Reed-Solomon transferer.
type RSConfig struct {
	// ShardBytes is the payload carried per shard frame.
	ShardBytes int
	// DataShards is k, the data shards per block.
	DataShards int
}

// DefaultRSConfig is the experiment operating point.
func DefaultRSConfig() RSConfig { return RSConfig{ShardBytes: 12, DataShards: 8} }

// lossWindow is the sliding window of recent per-frame erasure verdicts.
type lossWindow struct {
	ring []bool
	n    int
	idx  int
	lost int
}

func newLossWindow(frames int) *lossWindow { return &lossWindow{ring: make([]bool, frames)} }

// Observe pushes one frame verdict (true = erased/corrupted).
func (w *lossWindow) Observe(lost bool) {
	if w.n == len(w.ring) {
		if w.ring[w.idx] {
			w.lost--
		}
	} else {
		w.n++
	}
	w.ring[w.idx] = lost
	if lost {
		w.lost++
	}
	w.idx = (w.idx + 1) % len(w.ring)
}

// Rate returns the windowed erasure rate, falling back to prior until
// the window holds at least 8 verdicts.
func (w *lossWindow) Rate(prior float64) float64 {
	if w.n < 8 {
		return prior
	}
	return float64(w.lost) / float64(w.n)
}

// RSTransferer moves payloads in RS-coded blocks whose parity budget is
// re-sized from the loss window before every block — GuardRider's
// adaptation loop.
type RSTransferer struct {
	Config RSConfig

	c      link.Carrier
	window *lossWindow
	codes  map[int]*RS
}

// NewRSTransferer wires the adaptive-RS loop over sys; seed the backoff
// jitter from a labeled stats.SubSeed path.
func NewRSTransferer(sys *core.System, env *channel.Environment, cfg RSConfig, seed int64) *RSTransferer {
	return &RSTransferer{
		Config: cfg,
		c:      newCarrier(sys, env, seed),
		window: newLossWindow(rsWindowFrames),
		codes:  map[int]*RS{},
	}
}

// rsHeader is the per-shard frame header: block index and shard index.
// The block geometry (k, n) is shared transferer state — in a real
// deployment the control channel that starts a transfer would carry it —
// so it does not ride in every shard.
const rsHeader = 2

// lossRate is the windowed erasure estimate the parity budget is sized
// from.
func (t *RSTransferer) lossRate() float64 {
	return min(t.window.Rate(rsPriorLoss), rsMaxLoss)
}

// parityFor sizes m so that k of n = k+m shards survive erasure rate p
// in expectation, plus the margin.
func parityFor(k int, p float64) int {
	n := int(float64(k)/(1-max(p, 0))) + 1 + rsMarginShards
	return min(max(n-k, 1), MaxShards-k)
}

// code returns the cached code for k data shards at its parity ceiling.
// Because the systematic Vandermonde parity rows for a fixed k do not
// depend on m, shards already on the air stay valid as the budget grows —
// the GuardRider adaptation is pure incremental redundancy, never a
// full-block resend.
func (t *RSTransferer) code(k int) (*RS, error) {
	if c := t.codes[k]; c != nil {
		return c, nil
	}
	c, err := NewRS(k, min(MaxShards-k, 12*k+12))
	if err != nil {
		return nil, err
	}
	t.codes[k] = c
	return c, nil
}

// Send moves payload tag→client in adaptive RS blocks.
func (t *RSTransferer) Send(ctx context.Context, payload []byte) (*Stats, error) {
	sb, kMax := t.Config.ShardBytes, t.Config.DataShards
	if sb < 1 || kMax < 1 || sb+rsHeader > core.MaxPayload {
		return nil, fmt.Errorf("coding: RS shard %dB × k=%d outside [1,%d]B × k≥1", sb, kMax, core.MaxPayload-rsHeader)
	}
	c := &t.c
	st, err := c.Begin("rs", payload)
	if err != nil {
		return nil, err
	}
	defer c.Finish()
	spans, o := c.Spans(), c.Obs()

	out := make([]byte, len(payload))
	blockSpan := kMax * sb
	lastM := -1
	for blockIdx, at := 0, 0; at < len(payload); blockIdx, at = blockIdx+1, at+blockSpan {
		k := (min(len(payload)-at, blockSpan) + sb - 1) / sb
		data := make([][]byte, k)
		for i := range data {
			data[i] = make([]byte, sb)
			start := at + i*sb
			copy(data[i], payload[start:min(start+sb, len(payload))])
		}
		rs, err := t.code(k)
		if err != nil {
			return st, err
		}
		mCap := rs.M
		sp := spans.Start()
		parity, err := rs.Parity(data)
		if err != nil {
			return st, err
		}
		spans.End(obs.PhaseCodingEncode, sp)
		// First wave: data shards plus a parity budget sized from the
		// windowed erasure rate.
		m0 := min(parityFor(k, t.lossRate()), mCap)
		if lastM >= 0 && m0 != lastM {
			st.ParityResizes++
		}
		lastM = m0
		first, sentParity := 0, m0
		rx := make([][]byte, k+mCap)
		got := 0
		delivered := false
		for wave := 0; wave <= rsBlockRetries && !delivered; wave++ {
			for si := first; si < k+sentParity; si++ {
				var shard []byte
				if si < k {
					shard = data[si]
				} else {
					shard = parity[si-k]
				}
				dec, _, v, err := c.Carry(ctx, DefaultCodec(), append([]byte{byte(blockIdx), byte(si)}, shard...))
				if err != nil {
					return st, err
				}
				if o != nil {
					o.Coding.ShardsSent.Inc()
				}
				if v == link.FrameErased {
					c.Backoff()
				}
				if v == link.FrameOK && (len(dec) != rsHeader+sb || int(dec[1]) >= k+mCap) {
					st.ResidualErrors++ // CRC-passing residual corruption
					v = link.FrameResidual
				}
				t.window.Observe(v != link.FrameOK)
				c.Trace(obs.Event{Kind: "shard", Offset: si, Outcome: v.Outcome()})
				if v != link.FrameOK {
					continue
				}
				ri := int(dec[1])
				if rx[ri] == nil {
					got++
				}
				rx[ri] = append([]byte(nil), dec[rsHeader:]...)
			}
			if got >= k {
				st.DecodeAttempts++
				sp := spans.Start()
				if err := rs.Reconstruct(rx); err != nil {
					return st, err
				}
				spans.End(obs.PhaseCodingDecode, sp)
				for i := 0; i < k; i++ {
					start := at + i*sb
					end := min(start+sb, len(payload))
					copy(out[start:end], rx[i][:end-start])
				}
				delivered = true
				break
			}
			// GuardRider adaptation: size the next parity wave from the
			// freshly re-estimated erasure rate and the outstanding need.
			extra := min(int(float64(k-got)/(1-t.lossRate()))+rsMarginShards, mCap-sentParity)
			if extra <= 0 {
				break // parity space exhausted — the block is undeliverable
			}
			st.ParityResizes++
			first, sentParity = k+sentParity, sentParity+extra
		}
		st.FinalK, st.FinalN = k, k+sentParity
		if !delivered {
			return st, nil // incremental-parity budget exhausted
		}
	}
	st.Received = out
	st.Delivered = true
	return st, nil
}
