package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"witag/internal/channel"
	"witag/internal/crypto80211"
	"witag/internal/dot11"
	"witag/internal/fault"
	"witag/internal/phy"
	"witag/internal/stats"
	"witag/internal/traffic"
)

// PSDULen must equal the length of the marshalled byte-level build for
// every spec the simulator can produce: unshaped and shaped, every
// single-stream HT MCS, open/WEP/CCMP, and every data length.
func TestPSDULenMatchesMarshalledQuery(t *testing.T) {
	ciphers := map[string]func() (crypto80211.Cipher, error){
		"open": func() (crypto80211.Cipher, error) { return nil, nil },
		"wep": func() (crypto80211.Cipher, error) {
			return crypto80211.NewWEP([]byte("12345"), 0)
		},
		"ccmp": func() (crypto80211.Cipher, error) {
			return crypto80211.NewCCMP(make([]byte, 16), [6]byte{2, 0, 0, 0, 0, 0x10}, 0)
		},
	}
	for name, mk := range ciphers {
		c, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		overhead := 0
		if c != nil {
			overhead = c.Overhead()
		}
		sched := newSched(t)
		sched.Cipher = c
		for idx := 0; idx <= 7; idx++ {
			mcs, err := dot11.HTMCS(idx)
			if err != nil {
				t.Fatal(err)
			}
			for dataLen := 1; dataLen <= 60; dataLen++ {
				spec := DefaultQuerySpec()
				spec.MCS, spec.DataLen = mcs, dataLen
				specs := []QuerySpec{spec}
				for ticks := 1; ticks <= 8; ticks++ {
					shaped := spec
					if shaped.ShapeForTick(20*time.Microsecond, ticks, overhead) == nil {
						specs = append(specs, shaped)
						break
					}
				}
				for _, q := range specs {
					agg, _, err := q.BuildQuery(sched)
					if err != nil {
						t.Fatal(err)
					}
					psdu, err := agg.Marshal()
					if err != nil {
						t.Fatal(err)
					}
					got, err := q.PSDULen(overhead)
					if err != nil {
						t.Fatal(err)
					}
					if got != len(psdu) {
						t.Fatalf("%s MCS %d DataLen %d shaped=%v: PSDULen %d, marshalled %d bytes",
							name, idx, dataLen, q.PayloadSizes != nil, got, len(psdu))
					}
				}
			}
		}
	}
}

func TestPSDULenRejectsWhatTheBuildRejects(t *testing.T) {
	spec := DefaultQuerySpec()
	spec.TriggerLen = 0
	if _, err := spec.PSDULen(0); err == nil {
		t.Fatal("invalid spec accepted")
	}
	spec = DefaultQuerySpec()
	spec.PayloadSizes = make([]int, spec.Total())
	spec.PayloadSizes[3] = dot11.MaxMPDULen
	if _, err := spec.PSDULen(0); err == nil {
		t.Fatal("MPDU longer than the delimiter's length field accepted")
	}
	if _, _, err := spec.BuildQuery(newSched(t)); err == nil {
		t.Fatal("the byte-level build accepts the over-long MPDU PSDULen rejects")
	}
}

// decodeProb with per-round BERs must reproduce, bit for bit, the product
// of two SubframeSuccessProb calls at the segments' SINRs.
func TestDecodeProbMatchesSubframeSuccessProb(t *testing.T) {
	reference := func(mcs dot11.MCS, clean, dirty float64, subBits int, coverage float64) float64 {
		coverage = math.Min(math.Max(coverage, 0), 1)
		cleanBits := int(math.Round(float64(subBits) * (1 - coverage)))
		dirtyBits := subBits - cleanBits
		p := 1.0
		if cleanBits > 0 {
			pc, err := phy.SubframeSuccessProb(mcs, clean, cleanBits)
			if err != nil {
				t.Fatal(err)
			}
			p *= pc
		}
		if dirtyBits > 0 {
			pd, err := phy.SubframeSuccessProb(mcs, dirty, dirtyBits)
			if err != nil {
				t.Fatal(err)
			}
			p *= pd
		}
		return p
	}
	sinrsDb := []float64{-10, -3, 0, 2.5, 5, 7, 9.5, 12, 15, 18, 22, 27, 35}
	for idx := 0; idx <= 7; idx++ {
		mcs, err := dot11.HTMCS(idx)
		if err != nil {
			t.Fatal(err)
		}
		for _, cleanDb := range sinrsDb {
			for _, dirtyDb := range sinrsDb {
				clean, dirty := phy.SNRFromDb(cleanDb), phy.SNRFromDb(dirtyDb)
				cleanBER, err := phy.CodedBER(mcs, clean)
				if err != nil {
					t.Fatal(err)
				}
				dirtyBER, err := phy.CodedBER(mcs, dirty)
				if err != nil {
					t.Fatal(err)
				}
				for _, subBits := range []int{8, 288, 352, 480, 1000, 4096, 12000} {
					for _, cov := range []float64{-0.2, 0, 0.01, 0.25, 0.37, 0.5, 0.81, 0.999, 1, 1.3} {
						got := decodeProb(cleanBER, dirtyBER, subBits, cov)
						want := reference(mcs, clean, dirty, subBits, cov)
						if got != want {
							t.Fatalf("MCS %d clean %v dB dirty %v dB bits %d coverage %v: %v, want %v",
								idx, cleanDb, dirtyDb, subBits, cov, got, want)
						}
					}
				}
			}
		}
	}
}

// benchSystem is the deployment BenchmarkQueryRound (bench_test.go at the
// repository root) times: one reflector, four walkers, the tag 2 m from
// the client at the experiments' calibrated gain (68).
func benchSystem(t *testing.T) *System {
	t.Helper()
	env := channel.NewEnvironment(1)
	env.AddReflector(channel.Point{X: 4, Y: 3.5}, 60)
	env.AddScatterers(4, 0, -3, 8, 3, 15, 1.0)
	sys, err := NewSystem(env,
		channel.Point{X: 0, Y: 0}, channel.Point{X: 8, Y: 0},
		channel.Point{X: 2, Y: 0.3}, 68, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// A steady-state query round allocates nothing: the result and every
// per-round slice, from the bits to the block ACK, live in the System's
// round scratch, which the warm-up round sizes. The second case attaches
// a fault injector and an ambient traffic generator, as the
// adaptive-coding world does, so trigger misses, brownouts, block-ACK
// losses and collision masks all run under the guard.
func TestQueryRoundAllocations(t *testing.T) {
	cases := []struct {
		name            string
		faults, traffic string
	}{
		{"plain", "", ""},
		{"faults+traffic", "harsh", "saturated"},
	}
	for _, tc := range cases {
		sys := benchSystem(t)
		if tc.faults != "" {
			fp, err := fault.Named(tc.faults)
			if err != nil {
				t.Fatal(err)
			}
			if sys.Faults, err = fault.NewInjector(fp, 3); err != nil {
				t.Fatal(err)
			}
			tp, err := traffic.Named(tc.traffic)
			if err != nil {
				t.Fatal(err)
			}
			if sys.Traffic, err = traffic.NewGenerator(tp, 4); err != nil {
				t.Fatal(err)
			}
		}
		bits := stats.RandomBits(stats.NewRNG(2), sys.Spec.DataLen)
		if _, err := sys.QueryRound(bits); err != nil {
			t.Fatal(err)
		}
		var roundErr error
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := sys.QueryRound(bits); err != nil {
				roundErr = err
			}
		})
		if roundErr != nil {
			t.Fatal(roundErr)
		}
		if allocs != 0 {
			t.Errorf("%s: QueryRound allocates %v objects per round, want 0", tc.name, allocs)
		}
	}
}

// QueryRound's result is the System's round scratch: every round returns
// the same *RoundResult, and a round may take the previous round's TxBits
// or RxBits (or a tail of them) as its input, aliasing the buffers it
// overwrites, and still match a twin system fed fresh copies of the bits.
func TestQueryRoundResultOwnership(t *testing.T) {
	sys, env := testbed(t, 2, 31)
	twin, twinEnv := testbed(t, 2, 31)
	bits := stats.RandomBits(stats.NewRNG(5), sys.Spec.DataLen)
	res, err := sys.QueryRound(bits)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := twin.QueryRound(bits); err != nil {
		t.Fatal(err)
	}
	first := res
	inputs := []func(*RoundResult) []byte{
		func(r *RoundResult) []byte { return r.TxBits },
		func(r *RoundResult) []byte { return r.RxBits },
		func(r *RoundResult) []byte { return r.TxBits[7:] },
		func(r *RoundResult) []byte { return r.RxBits[:20] },
	}
	for round, input := range inputs {
		env.Advance(0.05)
		twinEnv.Advance(0.05)
		in := input(res)
		fresh := append([]byte(nil), in...)
		if res, err = sys.QueryRound(in); err != nil {
			t.Fatal(err)
		}
		want, err := twin.QueryRound(fresh)
		if err != nil {
			t.Fatal(err)
		}
		if res != first {
			t.Fatalf("round %d returned a new *RoundResult; want the System's scratch", round+2)
		}
		if !reflect.DeepEqual(*res, *want) {
			t.Fatalf("round %d on aliased input: %+v\ntwin on a fresh copy: %+v", round+2, *res, *want)
		}
	}
}

// The scratch carries no state from round to round: a System reusing it
// matches, field for field, a twin whose scratch is dropped before every
// round, as if each round allocated afresh. Faults and ambient traffic
// interleave detected rounds with trigger misses, brownouts and lost
// block ACKs, so every path that must overwrite or clear a buffer runs
// after one that filled it.
func TestQueryRoundScratchCarriesNoState(t *testing.T) {
	build := func() (*System, *channel.Environment) {
		sys, env := testbed(t, 3, 47)
		fp, err := fault.Named("harsh")
		if err != nil {
			t.Fatal(err)
		}
		if sys.Faults, err = fault.NewInjector(fp, 5); err != nil {
			t.Fatal(err)
		}
		tp, err := traffic.Named("office")
		if err != nil {
			t.Fatal(err)
		}
		if sys.Traffic, err = traffic.NewGenerator(tp, 6); err != nil {
			t.Fatal(err)
		}
		return sys, env
	}
	sys, env := build()
	fresh, freshEnv := build()
	rng := stats.NewRNG(8)
	var undetected, baLost int
	for r := 0; r < 400; r++ {
		env.Advance(0.05)
		freshEnv.Advance(0.05)
		// Short payloads too, so the idle padding is rewritten.
		bits := stats.RandomBits(rng, 1+rng.Intn(sys.Spec.DataLen))
		got, err := sys.QueryRound(bits)
		if err != nil {
			t.Fatal(err)
		}
		fresh.scratch = roundScratch{}
		want, err := fresh.QueryRound(bits)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*got, *want) {
			t.Fatalf("round %d: reused scratch %+v\nfresh scratch %+v", r, *got, *want)
		}
		if !got.Detected {
			undetected++
		}
		if got.BALost {
			baLost++
		}
	}
	if undetected == 0 || baLost == 0 {
		t.Fatalf("%d undetected and %d BA-lost rounds in 400; the test needs both", undetected, baLost)
	}
}

// Each round consumes one BA window of sequence numbers, as transmitting
// the built aggregate would.
func TestQueryRoundAdvancesSequenceLikeBuild(t *testing.T) {
	sys := benchSystem(t)
	built := *sys.Scheduler
	for r := 0; r < 70; r++ {
		if _, err := sys.QueryRound(nil); err != nil {
			t.Fatal(err)
		}
		if _, _, err := sys.Spec.BuildQuery(&built); err != nil {
			t.Fatal(err)
		}
		if sys.Scheduler.NextSeq() != built.NextSeq() {
			t.Fatalf("round %d: next sequence %d, byte-level build %d", r, sys.Scheduler.NextSeq(), built.NextSeq())
		}
	}
}

// The round sizes subframes with System.Cipher; a scheduler carrying a
// different cipher would put other frames on the air, so both entry
// points refuse to run.
func TestCipherMismatchFails(t *testing.T) {
	ccmp, err := crypto80211.NewCCMP(make([]byte, 16), [6]byte{2, 0, 0, 0, 0, 0x10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	wep, err := crypto80211.NewWEP([]byte("12345"), 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name        string
		sys, sched  crypto80211.Cipher
		wantFailure bool
	}{
		{"open", nil, nil, false},
		{"ccmp both", ccmp, ccmp, false},
		{"system only", ccmp, nil, true},
		{"scheduler only", nil, ccmp, true},
		{"different ciphers", ccmp, wep, true},
	}
	for _, tc := range cases {
		sys := benchSystem(t)
		sys.Cipher, sys.Scheduler.Cipher = tc.sys, tc.sched
		if err := sys.Reshape(); err != nil {
			t.Fatal(err)
		}
		before := sys.Scheduler.NextSeq()
		_, roundErr := sys.QueryRound(nil)
		_, rateErr := sys.TagRateBps()
		if tc.wantFailure {
			if roundErr == nil || rateErr == nil {
				t.Errorf("%s: QueryRound err %v, TagRateBps err %v; want both to fail", tc.name, roundErr, rateErr)
			}
			if sys.Scheduler.NextSeq() != before {
				t.Errorf("%s: refused round consumed sequence numbers", tc.name)
			}
		} else if roundErr != nil || rateErr != nil {
			t.Errorf("%s: QueryRound err %v, TagRateBps err %v", tc.name, roundErr, rateErr)
		}
	}
}
