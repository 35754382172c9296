package phy

import (
	"bytes"
	"testing"

	"witag/internal/obs"
	"witag/internal/stats"
)

// receivedFixture runs the TX → channel → CSI chain once, yielding a frame
// ready for Receive.
func receivedFixture(tb testing.TB, psduLen int) (*Received, *CSI, []byte) {
	tb.Helper()
	cfg := DefaultConfig()
	psdu := stats.RandomBytes(stats.NewRNG(7), psduLen)
	wf, err := Transmit(psdu, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	rx := ApplyChannel(wf, func(sym, sc int) complex128 { return 1 }, 1/SNRFromDb(25), stats.NewRNG(8))
	csi, err := EstimateCSI(rx.LTF)
	if err != nil {
		tb.Fatal(err)
	}
	return rx, csi, psdu
}

// BenchmarkEqualise times the per-symbol equalisation stage in isolation —
// the phase the span profile attributes as "equalise" on the bit-true
// receive path.
func BenchmarkEqualise(b *testing.B) {
	rx, csi, _ := receivedFixture(b, 1500)
	sym := rx.Symbols[0]
	b.SetBytes(int64(len(sym) * 16)) // one complex128 per subcarrier
	eq := make([]complex128, len(sym))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := equaliseSymbol(eq, sym, csi.Gains, rx.Layout.PilotIdx, pilotPolarity(0))
		if len(out) != len(sym) {
			b.Fatal("equalised symbol length changed")
		}
	}
}

// TestReceiveRecordsSpans is the bit-true-path counterpart of the
// experiments-level span determinism test: Receive with a span timer
// attached must time every receiver phase — including deinterleave, which
// only exists on this path — and must decode exactly what it decodes with
// no timer attached.
func TestReceiveRecordsSpans(t *testing.T) {
	rx, csi, psdu := receivedFixture(t, 256)

	bare, err := Receive(rx, csi, false)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	rx.Spans = obs.NewSpans(reg)
	timed, err := Receive(rx, csi, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bare.PSDU, timed.PSDU) || !bytes.Equal(bare.PSDU, psdu) {
		t.Fatal("span timing changed the decoded PSDU")
	}

	snap := reg.Snapshot()
	nsym := int64(len(rx.Symbols))
	for _, tc := range []struct {
		phase obs.Phase
		want  int64 // spans per Receive call
	}{
		{obs.PhaseEqualise, nsym},
		{obs.PhaseDeinterleave, nsym},
		{obs.PhaseViterbi, 1},
		{obs.PhaseCRC, 1},
	} {
		name := obs.SpanName(tc.phase)
		if got := snap.Histograms[name].Count; got != tc.want {
			t.Errorf("%s recorded %d spans, want %d", name, got, tc.want)
		}
	}
}
