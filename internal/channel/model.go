package channel

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"witag/internal/obs"
	"witag/internal/stats"
)

// Reflector is a static environment feature (furniture, cabinets, walls'
// specular faces) that contributes a multipath component.
type Reflector struct {
	Pos  Point
	Gain float64 // effective backscatter gain (dimensionless)
}

// Scatterer is a moving reflector — a person walking through the space.
// Its position random-walks between channel snapshots, producing the
// round-to-round channel variation the paper's one-minute measurements see.
type Scatterer struct {
	Pos      Point
	Gain     float64
	SpeedMps float64 // walking speed
}

// TagReflection describes the tag's instantaneous contribution to the
// channel: its position and complex reflection coefficient. The magnitude
// folds antenna gain; the phase is the switch state (0 or π for the
// quarter-wave-stub design of §5.2; magnitude 0 models open circuit).
// ExcessPathM adds electrical length to the reflected path — the group
// delay of the tag's antenna/stub/switch network plus near-field
// scattering. It gives the tag's channel delta a frequency-dependent phase
// ramp, which is what keeps pilot common-phase tracking from undoing the
// corruption (see phy.DistortionAfterCPE).
type TagReflection struct {
	Pos         Point
	Coeff       complex128
	ExcessPathM float64
}

// Environment is the full propagation model. Create with NewEnvironment,
// then place walls, reflectors and scatterers.
type Environment struct {
	FreqHz         float64
	PathLossExp    float64 // direct-path exponent (2 = free space)
	TxPowerDbm     float64
	NoiseFloorDbm  float64
	NumSubcarriers int
	Walls          []Wall
	Reflectors     []Reflector
	Scatterers     []Scatterer

	// Spans, when non-nil, attributes Advance's scatterer walk to the
	// channel phase. Channel itself is not self-instrumented: callers
	// (core.System.QueryRound) wrap it in their own channel span, and
	// double-counting one evaluation would inflate attribution.
	Spans *obs.Spans

	rng *rand.Rand
}

// NewEnvironment returns an environment with the paper's defaults: 2.4 GHz,
// free-space LoS exponent, 15 dBm transmit power, 56 used subcarriers
// (20 MHz HT).
func NewEnvironment(seed int64) *Environment {
	return &Environment{
		FreqHz:         DefaultFreqHz,
		PathLossExp:    2.0,
		TxPowerDbm:     15,
		NoiseFloorDbm:  NoiseFloorDbm20MHz,
		NumSubcarriers: 56,
		rng:            stats.NewRNG(seed),
	}
}

// AddWall appends a wall segment.
func (e *Environment) AddWall(a, b Point, attenuationDb float64, material string) {
	e.Walls = append(e.Walls, Wall{A: a, B: b, AttenuationDb: attenuationDb, Material: material})
}

// AddReflector appends a static reflector.
func (e *Environment) AddReflector(p Point, gain float64) {
	e.Reflectors = append(e.Reflectors, Reflector{Pos: p, Gain: gain})
}

// AddScatterers sprinkles n moving scatterers uniformly over the rectangle
// [x0,x1]×[y0,y1].
func (e *Environment) AddScatterers(n int, x0, y0, x1, y1, gain, speedMps float64) {
	for i := 0; i < n; i++ {
		e.Scatterers = append(e.Scatterers, Scatterer{
			Pos:      Point{stats.Uniform(e.rng, x0, x1), stats.Uniform(e.rng, y0, y1)},
			Gain:     gain,
			SpeedMps: speedMps,
		})
	}
}

// Advance moves every scatterer through dt seconds of random walk. Calling
// it between query rounds models people moving while the channel stays
// frozen within each (few-ms) A-MPDU — the coherence-time argument of §5.
func (e *Environment) Advance(dt float64) {
	sp := e.Spans.Start()
	defer e.Spans.End(obs.PhaseChannel, sp)
	for i := range e.Scatterers {
		s := &e.Scatterers[i]
		theta := stats.Uniform(e.rng, 0, 2*math.Pi)
		step := s.SpeedMps * dt
		s.Pos = s.Pos.Add(step*math.Cos(theta), step*math.Sin(theta))
	}
}

// pathPhase returns the carrier+subcarrier phase of a path of length d at
// used-subcarrier index k: −2π·d/λ − 2π·f_k·d/c, with f_k the subcarrier
// offset from band centre. The second term is the delay-induced phase ramp
// across subcarriers — the frequency selectivity pilots cannot track.
func (e *Environment) pathPhase(d float64, k int) float64 {
	lam := Wavelength(e.FreqHz)
	fk := (float64(k) - float64(e.NumSubcarriers-1)/2) * SubcarrierSpacingHz
	return -2*math.Pi*d/lam - 2*math.Pi*fk*d/SpeedOfLight
}

// Channel returns the per-used-subcarrier complex gain from tx to rx with
// the tag in the given state (nil tag = absent or open-circuited).
func (e *Environment) Channel(tx, rx Point, tag *TagReflection) ([]complex128, error) {
	if err := e.checkLink(tx, rx); err != nil {
		return nil, err
	}
	h := make([]complex128, e.NumSubcarriers)
	if err := e.addStatic(h, tx, rx); err != nil {
		return nil, err
	}
	if err := e.addTag(h, tx, rx, tag); err != nil {
		return nil, err
	}
	return h, nil
}

// ChannelPair returns Channel(tx, rx, tagA) and Channel(tx, rx, tagB),
// bit-identical to the two calls, while summing the direct path,
// reflectors and scatterers only once: each tag state's term is added last
// to its own copy of that shared sum, which is the order Channel adds it.
func (e *Environment) ChannelPair(tx, rx Point, tagA, tagB *TagReflection) ([]complex128, []complex128, error) {
	return e.ChannelPairInto(make([]complex128, 2*max(e.NumSubcarriers, 0)), tx, rx, tagA, tagB)
}

// ChannelPairInto is ChannelPair writing into dst, which must hold
// exactly 2·NumSubcarriers values: the first half becomes tagA's channel
// and the second half tagB's. dst's previous contents are ignored.
func (e *Environment) ChannelPairInto(dst []complex128, tx, rx Point, tagA, tagB *TagReflection) ([]complex128, []complex128, error) {
	if err := e.checkLink(tx, rx); err != nil {
		return nil, nil, err
	}
	n := e.NumSubcarriers
	if len(dst) != 2*n {
		return nil, nil, fmt.Errorf("channel: pair buffer holds %d values, want %d", len(dst), 2*n)
	}
	hA, hB := dst[:n:n], dst[n:]
	clear(hA)
	if err := e.addStatic(hA, tx, rx); err != nil {
		return nil, nil, err
	}
	copy(hB, hA)
	if err := e.addTag(hA, tx, rx, tagA); err != nil {
		return nil, nil, err
	}
	if err := e.addTag(hB, tx, rx, tagB); err != nil {
		return nil, nil, err
	}
	return hA, hB, nil
}

func (e *Environment) checkLink(tx, rx Point) error {
	if e.NumSubcarriers <= 0 {
		return fmt.Errorf("channel: environment has %d subcarriers", e.NumSubcarriers)
	}
	if tx == rx {
		return fmt.Errorf("channel: tx and rx are co-located at %v", tx)
	}
	return nil
}

// addPath adds one propagation path of amplitude amp and length dist to h.
func (e *Environment) addPath(h []complex128, amp, dist, extraPhase float64) {
	for k := range h {
		h[k] += complex(amp, 0) * cmplx.Exp(complex(0, e.pathPhase(dist, k)+extraPhase))
	}
}

// addStatic adds every path except the tag's to h: the direct path, then
// the static reflectors, then the moving scatterers.
func (e *Environment) addStatic(h []complex128, tx, rx Point) error {
	// Direct path.
	d := tx.Dist(rx)
	amp, err := FriisAmplitude(d, e.FreqHz, e.PathLossExp)
	if err != nil {
		return err
	}
	amp *= DbToAmplitude(-PathAttenuationDb(e.Walls, tx, rx))
	e.addPath(h, amp, d, 0)

	// Static reflectors and moving scatterers: two-hop bounce paths.
	for _, r := range e.Reflectors {
		if err := e.addBounce(h, tx, rx, r.Pos, r.Gain); err != nil {
			return err
		}
	}
	for _, s := range e.Scatterers {
		if err := e.addBounce(h, tx, rx, s.Pos, s.Gain); err != nil {
			return err
		}
	}
	return nil
}

func (e *Environment) addBounce(h []complex128, tx, rx, p Point, gain float64) error {
	ds, dr := tx.Dist(p), p.Dist(rx)
	if ds <= 0 || dr <= 0 {
		return nil // co-located with an endpoint: ignore
	}
	a, err := BackscatterAmplitude(ds, dr, e.FreqHz, gain)
	if err != nil {
		return err
	}
	a *= DbToAmplitude(-PathAttenuationDb(e.Walls, tx, p) - PathAttenuationDb(e.Walls, p, rx))
	e.addPath(h, a, ds+dr, 0)
	return nil
}

// addTag adds the tag's backscatter path to h; a nil tag or a zero
// coefficient adds nothing.
func (e *Environment) addTag(h []complex128, tx, rx Point, tag *TagReflection) error {
	if tag == nil || tag.Coeff == 0 {
		return nil
	}
	ds, dr := tx.Dist(tag.Pos), tag.Pos.Dist(rx)
	a, err := BackscatterAmplitude(ds, dr, e.FreqHz, cmplx.Abs(tag.Coeff))
	if err != nil {
		return err
	}
	a *= DbToAmplitude(-PathAttenuationDb(e.Walls, tx, tag.Pos) - PathAttenuationDb(e.Walls, tag.Pos, rx))
	e.addPath(h, a, ds+dr+tag.ExcessPathM, cmplx.Phase(tag.Coeff))
	return nil
}

// MeanPower returns the mean |h|² over subcarriers.
func MeanPower(h []complex128) float64 {
	if len(h) == 0 {
		return 0
	}
	var p float64
	for _, v := range h {
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	return p / float64(len(h))
}

// SNR returns the mean per-subcarrier linear SNR of the tx→rx link with the
// tag absent.
func (e *Environment) SNR(tx, rx Point) (float64, error) {
	h, err := e.Channel(tx, rx, nil)
	if err != nil {
		return 0, err
	}
	return SNRLinear(e.TxPowerDbm, MeanPower(h), e.NoiseFloorDbm), nil
}

// TagDeltaPower returns the mean per-subcarrier power of the channel change
// the tag produces when toggling between two reflection states — the |Δh|²
// from Figure 3 that §5.2 maximises.
func (e *Environment) TagDeltaPower(tx, rx Point, stateA, stateB *TagReflection) (float64, error) {
	ha, hb, err := e.ChannelPair(tx, rx, stateA, stateB)
	if err != nil {
		return 0, err
	}
	delta := make([]complex128, len(ha))
	for k := range ha {
		delta[k] = ha[k] - hb[k]
	}
	return MeanPower(delta), nil
}
