package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// simTrials drives a timeline the way sim.Runner does: BeginSegment once
// per Each call, then chunked execution bounded by ChunkLimit with the
// per-trial work (here: deterministic counter increments) done before
// each NoteTrials barrier.
func simTrials(t *testing.T, tl *Timeline, c *Counter, n, perTrial int) {
	t.Helper()
	tl.BeginSegment()
	for lo := 0; lo < n; {
		hi := lo + tl.ChunkLimit()
		if hi > n || hi <= lo {
			hi = n
		}
		c.Add(int64((hi - lo) * perTrial))
		tl.NoteTrials(lo, hi)
		lo = hi
	}
}

func TestTimelineLogicalWindowsCloseEveryWindowTrials(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("work.units")
	tl := NewTimeline(reg, TimelineConfig{WindowTrials: 4})

	simTrials(t, tl, c, 10, 10)
	// 10 trials at window 4: two closed windows, 2 trials pending.
	if got := tl.Total(); got != 2 {
		t.Fatalf("Total = %d, want 2 closed windows", got)
	}
	if lim := tl.ChunkLimit(); lim != 2 {
		t.Fatalf("ChunkLimit = %d, want 2 (window 4, 2 pending)", lim)
	}
	tl.Flush()
	wins := tl.Windows()
	if len(wins) != 3 {
		t.Fatalf("after Flush: %d windows, want 3", len(wins))
	}
	wantTrials := []int64{4, 4, 2}
	var doneStart int64
	for i, w := range wins {
		if w.Kind != WindowLogical {
			t.Errorf("window %d kind %q, want logical", i, w.Kind)
		}
		if w.Seq != i {
			t.Errorf("window %d Seq = %d", i, w.Seq)
		}
		if w.DoneStart != doneStart || w.DoneEnd-w.DoneStart != wantTrials[i] {
			t.Errorf("window %d spans [%d,%d), want start %d width %d",
				i, w.DoneStart, w.DoneEnd, doneStart, wantTrials[i])
		}
		doneStart = w.DoneEnd
		if got, want := w.Delta.Counters["work.units"], 10*wantTrials[i]; got != want {
			t.Errorf("window %d delta = %d, want %d", i, got, want)
		}
	}
	// Flushing with nothing pending is a no-op.
	tl.Flush()
	if got := tl.Total(); got != 3 {
		t.Fatalf("idempotent Flush: Total = %d, want 3", got)
	}
}

func TestTimelineSpansTrackSegmentsAcrossEachCalls(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("work.units")
	tl := NewTimeline(reg, TimelineConfig{WindowTrials: 4})

	// Two Each calls: 6 then 3 trials. Window 2 straddles the boundary:
	// trials [4,6) of segment 1 plus [0,2) of segment 2.
	simTrials(t, tl, c, 6, 1)
	simTrials(t, tl, c, 3, 1)
	tl.Flush()

	wins := tl.Windows()
	if len(wins) != 3 {
		t.Fatalf("%d windows, want 3", len(wins))
	}
	wantSpans := [][]TrialSpan{
		{{Seg: 1, Lo: 0, Hi: 4}},
		{{Seg: 1, Lo: 4, Hi: 6}, {Seg: 2, Lo: 0, Hi: 2}},
		{{Seg: 2, Lo: 2, Hi: 3}},
	}
	for i, w := range wins {
		if !reflect.DeepEqual(w.Spans, wantSpans[i]) {
			t.Errorf("window %d spans = %+v, want %+v", i, w.Spans, wantSpans[i])
		}
	}
	// Span lookup: trial 1 appears in both segments, in windows 0 and 1.
	straddle := wins[1].Spans
	if !straddle[1].Contains(2, 1) || straddle[1].Contains(1, 1) {
		t.Errorf("segment-qualified Contains misses: %+v", straddle)
	}
	if !straddle[1].Contains(0, 1) {
		t.Errorf("seg<=0 must match any segment: %+v", straddle[1])
	}
}

func TestTimelineLogicalDeltasAreDeterministicView(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("work.units")
	reg.Counter("wall.us", Volatile).Add(12345)
	reg.Gauge("inflight").Set(7)
	h := reg.Histogram("lat", []int64{1, 2, 4, 8})
	tl := NewTimeline(reg, TimelineConfig{WindowTrials: 2})

	tl.BeginSegment()
	c.Add(2)
	h.Observe(3)
	h.Observe(5)
	reg.Counter("wall.us").Add(999)
	tl.NoteTrials(0, 2)

	wins := tl.Windows()
	if len(wins) != 1 {
		t.Fatalf("%d windows, want 1", len(wins))
	}
	d := wins[0].Delta
	if _, ok := d.Counters["wall.us"]; ok {
		t.Error("volatile counter leaked into a logical delta")
	}
	if len(d.Gauges) != 0 {
		t.Errorf("gauges leaked into a logical delta: %v", d.Gauges)
	}
	if got := d.Histograms["lat"].Quantile(1.0); got != 8 {
		t.Errorf("window p100(lat) = %d, want 8", got)
	}
	if got := d.Histograms["lat"].Quantile(0.5); got != 4 {
		t.Errorf("window p50(lat) = %d, want 4 (nearest-rank upper bound)", got)
	}
}

func TestTimelineRingDropsOldestAndCounts(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("work.units")
	tl := NewTimeline(reg, TimelineConfig{WindowTrials: 1, Cap: 2})

	simTrials(t, tl, c, 5, 1)
	if got := tl.Total(); got != 5 {
		t.Fatalf("Total = %d, want 5", got)
	}
	if got := tl.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d, want 3", got)
	}
	wins := tl.Windows()
	if len(wins) != 2 {
		t.Fatalf("retained %d windows, want 2", len(wins))
	}
	if wins[0].Seq != 3 || wins[1].Seq != 4 {
		t.Errorf("ring kept Seq %d,%d — want the newest (3,4)", wins[0].Seq, wins[1].Seq)
	}
}

func TestTimelineJSONLRoundTrip(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("work.units")
	reg.Histogram("lat", []int64{1, 2, 4}).Observe(3)
	tl := NewTimeline(reg, TimelineConfig{WindowTrials: 3, Cap: 2})

	simTrials(t, tl, c, 10, 7)
	tl.Flush() // windows: 4 total, ring keeps 2

	var buf bytes.Buffer
	if err := tl.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	log, err := ReadTimelineLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if log.Truncated {
		t.Error("complete file read back as Truncated")
	}
	if log.Total != 4 || log.Dropped != 2 || log.WindowTrials != 3 {
		t.Errorf("summary = total %d dropped %d window %d, want 4/2/3",
			log.Total, log.Dropped, log.WindowTrials)
	}
	if !reflect.DeepEqual(log.Windows, tl.Windows()) {
		t.Errorf("windows did not round-trip:\n got %+v\nwant %+v", log.Windows, tl.Windows())
	}
}

func TestReadTimelineLogToleratesTruncatedTail(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("work.units")
	tl := NewTimeline(reg, TimelineConfig{WindowTrials: 2})
	simTrials(t, tl, c, 6, 1)

	var buf bytes.Buffer
	if err := tl.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.String()

	// Chop mid-summary: the windows survive, the log is marked truncated
	// with lower-bound accounting.
	cut := full[:strings.LastIndex(strings.TrimRight(full, "\n"), "\n")+12]
	log, err := ReadTimelineLog(strings.NewReader(cut))
	if err != nil {
		t.Fatalf("truncated tail must not error: %v", err)
	}
	if !log.Truncated {
		t.Error("chopped file not marked Truncated")
	}
	if len(log.Windows) != 3 || log.Total != 3 || log.WindowTrials != 0 {
		t.Errorf("truncated accounting: %d windows, total %d, window_trials %d",
			len(log.Windows), log.Total, log.WindowTrials)
	}

	// Garbage before the final line is corruption, not truncation.
	lines := strings.Split(strings.TrimRight(full, "\n"), "\n")
	lines[0] = lines[0][:10]
	if _, err := ReadTimelineLog(strings.NewReader(strings.Join(lines, "\n"))); err == nil {
		t.Error("mid-file corruption must error")
	}

	// A summary followed by more windows means the summary is stale.
	stale := full + lines[1] + "\n"
	log, err = ReadTimelineLog(strings.NewReader(stale))
	if err != nil {
		t.Fatal(err)
	}
	if !log.Truncated {
		t.Error("windows after the summary must mark the log Truncated")
	}
}

func TestReadTimelineLogRejectsNonLogicalWindows(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("work.units")
	tl := NewTimeline(reg, TimelineConfig{WindowTrials: 2})
	simTrials(t, tl, c, 4, 1)

	var buf bytes.Buffer
	if err := tl.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	// A wall-clock window record, as older exports could carry, is an
	// error naming its line — even as the final line.
	lines := strings.SplitAfter(buf.String(), "\n")
	wall := `{"kind":"wall","seq":0,"done_start":0,"done_end":4,"wall_ms":5,"dur_ms":5,"delta":{}}` + "\n"
	for _, in := range []string{
		lines[0] + wall + strings.Join(lines[1:], ""),
		buf.String() + wall,
	} {
		_, err := ReadTimelineLog(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "line ") || !strings.Contains(err.Error(), `"wall"`) {
			t.Errorf("wall window read back as %v, want an error naming the line and kind", err)
		}
	}
}

func TestTimelineNilSafety(t *testing.T) {
	var tl *Timeline
	tl.BeginSegment()
	tl.NoteTrials(0, 4)
	tl.Flush()
	if tl.Windows() != nil {
		t.Error("nil timeline Windows() != nil")
	}
	if tl.ChunkLimit() != 0 {
		t.Error("nil timeline ChunkLimit() != 0")
	}
}

func TestTimelineWindowJSONShape(t *testing.T) {
	// Windows must not serialise wall fields at all — the JSONL
	// determinism guarantee depends on it.
	w := TimelineWindow{Kind: WindowLogical, Seq: 0, DoneEnd: 4, Delta: emptySnapshot().Deterministic()}
	raw, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"wall_ms", "dur_ms", "volatile"} {
		if bytes.Contains(raw, []byte(field)) {
			t.Errorf("logical window JSON carries %q: %s", field, raw)
		}
	}
}
