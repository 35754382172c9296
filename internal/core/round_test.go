package core

import (
	"math"
	"testing"
	"time"

	"witag/internal/channel"
	"witag/internal/crypto80211"
	"witag/internal/dot11"
	"witag/internal/phy"
	"witag/internal/stats"
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

// A query round builds no frame bytes: it allocates only its results and
// a handful of per-round slices; the bound keeps it that way.
func TestQueryRoundAllocations(t *testing.T) {
	sys := benchSystem(t)
	bits := stats.RandomBits(stats.NewRNG(2), sys.Spec.DataLen)
	if _, err := sys.QueryRound(bits); err != nil {
		t.Fatal(err)
	}
	var roundErr error
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := sys.QueryRound(bits); err != nil {
			roundErr = err
		}
	})
	if roundErr != nil {
		t.Fatal(roundErr)
	}
	t.Logf("QueryRound: %v allocs/round", allocs)
	if allocs > 16 {
		t.Fatalf("QueryRound allocates %v objects per round, want ≤ 16", allocs)
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
