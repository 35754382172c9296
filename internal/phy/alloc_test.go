package phy

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"sync"
	"testing"

	"witag/internal/dot11"
	"witag/internal/stats"
)

// The bit-true chain allocates a fixed number of objects per frame, never
// per OFDM symbol: these guards fail if a per-symbol or per-subcarrier
// allocation comes back.

// allocsPerRun is testing.AllocsPerRun with the garbage collector off, so
// the runtime's own bookkeeping after a collection (which a large frame
// triggers more often) is not counted against the code under test.
func allocsPerRun(f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(5, f)
}

func chainAllocs(t *testing.T, psduLen int, soft bool) float64 {
	t.Helper()
	rx, csi, _ := receivedFixture(t, psduLen)
	return allocsPerRun(func() {
		if _, err := Receive(rx, csi, soft); err != nil {
			t.Fatal(err)
		}
	})
}

func TestReceiveAllocsPerFrame(t *testing.T) {
	short, long := chainAllocs(t, 40, false), chainAllocs(t, 1500, false)
	if short != long {
		t.Errorf("hard Receive: %v allocs for a 40-byte PSDU, %v for 1500 bytes; want equal", short, long)
	}
	if long > 20 {
		t.Errorf("hard Receive: %v allocs per frame, want ≤ 20", long)
	}
	if short, long := chainAllocs(t, 40, true), chainAllocs(t, 1500, true); short != long {
		t.Errorf("soft Receive: %v allocs for a 40-byte PSDU, %v for 1500 bytes; want equal", short, long)
	}
}

func TestTransmitChannelViterbiAllocs(t *testing.T) {
	cfg := DefaultConfig()
	psdu := stats.RandomBytes(stats.NewRNG(5), 1500)
	var wf *Waveform
	if n := allocsPerRun(func() {
		var err error
		if wf, err = Transmit(psdu, cfg); err != nil {
			t.Fatal(err)
		}
	}); n > 12 {
		t.Errorf("Transmit: %v allocs per frame, want ≤ 12", n)
	}
	rng := stats.NewRNG(6)
	if n := allocsPerRun(func() {
		ApplyChannel(wf, flatChannel, 0.01, rng)
	}); n > 6 {
		t.Errorf("ApplyChannel: %v allocs per frame, want ≤ 6", n)
	}
	coded := ConvEncode(stats.RandomBits(rng, 4096))
	if n := allocsPerRun(func() {
		if _, err := ViterbiDecode(coded); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("ViterbiDecode: %v allocs, want ≤ 2", n)
	}
}

// TestChainConcurrentAcrossModulations runs Transmit → ApplyChannel →
// EstimateCSI → Receive from several goroutines at once over every
// modulation and width, starting from unbuilt shared tables, so that
// `go test -race` covers their lazy construction and concurrent reads.
func TestChainConcurrentAcrossModulations(t *testing.T) {
	// Forget any tables earlier tests built; no other test runs in
	// parallel with this one.
	sharedLayouts = [len(sharedLayouts)]lazyTable[*Layout]{}
	sharedMappers = [len(sharedMappers)]lazyTable[*Mapper]{}
	sharedInterleavers = [len(sharedWidths)][len(sharedMappers)]lazyTable[*Interleaver]{}

	var cfgs []Config
	for _, w := range sharedWidths {
		for idx := 0; idx < 10; idx += 2 { // VHT MCS 0, 2, 4, 6, 8: BPSK…256-QAM
			mcs, err := dot11.VHTMCS(idx, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.MCS, cfg.Width = mcs, w
			cfgs = append(cfgs, cfg)
		}
	}
	const workers = 4
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := stats.NewRNG(int64(100 + g))
			for i := range cfgs {
				cfg := cfgs[(i+g)%len(cfgs)]
				if err := chainRoundTrip(cfg, stats.RandomBytes(rng, 60)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func chainRoundTrip(cfg Config, psdu []byte) error {
	wf, err := Transmit(psdu, cfg)
	if err != nil {
		return err
	}
	rx := ApplyChannel(wf, flatChannel, 0, nil)
	csi, err := EstimateCSI(rx.LTF)
	if err != nil {
		return err
	}
	for _, soft := range []bool{false, true} {
		res, err := Receive(rx, csi, soft)
		if err != nil {
			return fmt.Errorf("%v at %d MHz, soft=%v: %w", cfg.MCS, cfg.Width, soft, err)
		}
		if !bytes.Equal(res.PSDU, psdu) {
			return fmt.Errorf("%v at %d MHz, soft=%v: PSDU corrupted on a noiseless channel", cfg.MCS, cfg.Width, soft)
		}
	}
	return nil
}
