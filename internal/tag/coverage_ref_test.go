package tag

import (
	"math"
	"testing"
	"time"

	"witag/internal/stats"
)

// refCorruptionCoverageSchedule keeps the implementation
// CorruptionCoverageSchedule had while it allocated its boundaries and
// coverage per call. The equivalence test requires the buffer-writing
// form to return exactly the same float64 bits.
func refCorruptionCoverageSchedule(t *Tag, timing QueryTiming, bits []byte, trueDurations []time.Duration, tempC float64) []float64 {
	tick := t.Clock.SecondsPerTick(tempC)
	sTag := float64(timing.SubframeTicks) * tick
	guard := t.GuardFraction * sTag
	starts := make([]float64, len(bits)+1)
	for i, d := range trueDurations {
		starts[i+1] = starts[i] + d.Seconds()
	}
	coverage := make([]float64, len(bits))
	for i, b := range bits {
		if b&1 == 1 {
			continue
		}
		wStart := float64(i)*sTag + guard
		wEnd := float64(i+1)*sTag - guard
		for j := range bits {
			ov := overlap(wStart, wEnd, starts[j], starts[j+1])
			if ov > 0 {
				coverage[j] += ov / (starts[j+1] - starts[j])
			}
		}
	}
	for i, c := range coverage {
		if c > 1 {
			coverage[i] = 1
		}
	}
	return coverage
}

// Random shaped schedules across tick counts, temperatures (so crystal
// and ring clocks run fast or slow and windows can run past the last
// subframe), guard fractions in [0, 0.5) and bit patterns. The buffers are
// reused dirty from call to call, as a query round reuses them.
func TestCorruptionCoverageMatchesReference(t *testing.T) {
	rng := stats.NewRNG(17)
	var starts, coverage []float64
	for trial := 0; trial < 2000; trial++ {
		clk := NewCrystal50kHz(nil)
		if trial%3 == 0 {
			clk = NewRingOscillator(50e3, nil)
		}
		tg := New(40, clk)
		tg.GuardFraction = 0.5 * rng.Float64()
		if trial%7 == 0 {
			tg.GuardFraction = 0
		}
		tempC := -20 + 90*rng.Float64()
		ticks := 1 + rng.Intn(4)
		n := 1 + rng.Intn(64)
		bits := make([]byte, n)
		durations := make([]time.Duration, n)
		// A nominal subframe of ticks·20 µs, stretched or shrunk so the
		// tag's windows drift across, and past, the true boundaries.
		base := float64(ticks) * 20e3 * (0.8 + 0.4*rng.Float64())
		for i := range bits {
			bits[i] = byte(rng.Intn(2))
			if trial%5 == 0 {
				bits[i] |= 2 // only the low bit carries data
			}
			// Size dither of a few on-air bytes.
			durations[i] = time.Duration(base + 300*rng.NormFloat64())
		}
		timing := QueryTiming{SubframeTicks: ticks}
		want := refCorruptionCoverageSchedule(tg, timing, bits, durations, tempC)

		got, err := tg.CorruptionCoverageSchedule(timing, bits, durations, tempC)
		if err != nil {
			t.Fatal(err)
		}
		if cap(starts) < n+1 {
			starts, coverage = make([]float64, 65), make([]float64, 64)
		}
		for i := range starts {
			starts[i], coverage[i%len(coverage)] = math.NaN(), 7
		}
		into, err := tg.CorruptionCoverageInto(starts[:n+1], coverage[:n], timing, bits, durations, tempC)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			w := math.Float64bits(want[j])
			if math.Float64bits(got[j]) != w || math.Float64bits(into[j]) != w {
				t.Fatalf("trial %d subframe %d: schedule %v, into %v, reference %v",
					trial, j, got[j], into[j], want[j])
			}
		}
	}
}

func TestCorruptionCoverageIntoRejectsShortBuffers(t *testing.T) {
	tg := New(40, NewCrystal50kHz(nil))
	bits := []byte{0, 1, 0}
	durations := []time.Duration{20 * time.Microsecond, 20 * time.Microsecond, 20 * time.Microsecond}
	timing := QueryTiming{SubframeTicks: 1}
	if _, err := tg.CorruptionCoverageInto(make([]float64, 3), make([]float64, 3), timing, bits, durations, 25); err == nil {
		t.Fatal("boundary buffer one short accepted")
	}
	if _, err := tg.CorruptionCoverageInto(make([]float64, 4), make([]float64, 2), timing, bits, durations, 25); err == nil {
		t.Fatal("coverage buffer one short accepted")
	}
}
