package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestHubTimeseriesEndpoint(t *testing.T) {
	h := NewHub()
	a, _ := h.Register("a", CampaignOptions{})
	srv := httptest.NewServer(NewHubMux(h))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// No timeline attached: 404 with a hint, not an empty 200.
	if code, body := get("/campaigns/a/timeseries"); code != 404 || !strings.Contains(body, "-timeline") {
		t.Errorf("timeseries without timeline = %d %q, want 404 with hint", code, body)
	}

	tl := NewTimeline(a.Registry, TimelineConfig{WindowTrials: 2})
	a.SetTimeline(tl)
	c := a.Registry.Counter("core.rounds")
	tl.BeginSegment()
	for i := 0; i < 3; i++ {
		c.Add(10)
		tl.NoteTrials(2*i, 2*i+2)
	}

	code, body := get("/campaigns/a/timeseries")
	if code != 200 {
		t.Fatalf("timeseries = %d", code)
	}
	var ts TimeseriesResponse
	if err := json.Unmarshal([]byte(body), &ts); err != nil {
		t.Fatalf("timeseries not JSON: %v", err)
	}
	if ts.Campaign != "a" || ts.WindowTrials != 2 || ts.Total != 3 || len(ts.Windows) != 3 {
		t.Fatalf("timeseries = campaign %q window %d total %d windows %d",
			ts.Campaign, ts.WindowTrials, ts.Total, len(ts.Windows))
	}
	for _, w := range ts.Windows {
		if w.Kind != WindowLogical || w.Delta.Counters["core.rounds"] != 10 {
			t.Errorf("window did not survive the HTTP round-trip: %+v", w)
		}
	}

	_, body = get("/campaigns/a/timeseries?last=1")
	if err := json.Unmarshal([]byte(body), &ts); err != nil {
		t.Fatal(err)
	}
	if len(ts.Windows) != 1 || ts.Windows[0].Seq != 2 {
		t.Errorf("?last=1 = %+v, want the newest window only", ts.Windows)
	}

	if code, _ := get("/campaigns/a/timeseries?last=bogus"); code != 400 {
		t.Errorf("?last=bogus = %d, want 400", code)
	}
	if code, _ := get("/campaigns/a/timeseries?last=-1"); code != 400 {
		t.Errorf("?last=-1 = %d, want 400", code)
	}
}

func TestWritePrometheusLabeledEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("core.rounds").Add(7)
	reg.Histogram("lat", []int64{1}).Observe(1)
	snap := reg.Snapshot()

	cases := []struct{ id, want string }{
		{`plain`, `campaign="plain"`},
		{`has"quote`, `campaign="has\"quote"`},
		{`back\slash`, `campaign="back\\slash"`},
		{"new\nline", `campaign="new\nline"`},
		{"all\"of\\it\n", `campaign="all\"of\\it\n"`},
	}
	for _, tc := range cases {
		var b strings.Builder
		if err := snap.WritePrometheusLabeled(&b, "campaign", tc.id); err != nil {
			t.Fatal(err)
		}
		out := b.String()
		if !strings.Contains(out, "witag_core_rounds{"+tc.want+"} 7") {
			t.Errorf("label %q: escaped form %s missing:\n%s", tc.id, tc.want, out)
		}
		// The exposition format is line-oriented: a raw newline inside a
		// label value would split a sample in two.
		for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
			if strings.HasPrefix(line, "witag_") && !strings.Contains(line, " ") {
				t.Errorf("label %q: sample line split by raw newline: %q", tc.id, line)
			}
		}
		// Histogram bucket lines compose the campaign label with le.
		if !strings.Contains(out, "witag_lat_bucket{"+tc.want+",le=") {
			t.Errorf("label %q: bucket lines miss the label:\n%s", tc.id, out)
		}
	}
}

func TestReadyzGoes503DuringCloseAllWithLiveStream(t *testing.T) {
	h := NewHub()
	a, _ := h.Register("a", CampaignOptions{})
	srv := httptest.NewServer(NewHubMux(h))
	defer srv.Close()

	// Attach a real SSE client and wait for the open comment, so CloseAll
	// runs with a live stream to tear down.
	resp, err := http.Get(srv.URL + "/campaigns/a/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, ":") {
		t.Fatalf("no SSE open frame: %q, %v", line, err)
	}
	a.PublishAnomaly("test_rule", "still flowing", 1)

	done := make(chan struct{})
	go func() {
		h.CloseAll()
		close(done)
	}()

	// While (and after) shutdown: readiness must read 503 even though the
	// stream teardown is still in flight; liveness stays 200.
	deadline := time.After(2 * time.Second)
	for {
		r2, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		code := r2.StatusCode
		io.Copy(io.Discard, r2.Body)
		r2.Body.Close()
		if code == http.StatusServiceUnavailable {
			break
		}
		select {
		case <-deadline:
			t.Fatal("/readyz never went 503 during CloseAll")
		default:
		}
	}
	<-done
	// The broker closed: the live stream must end, not hang.
	if _, err := io.ReadAll(br); err != nil {
		t.Fatalf("SSE stream errored instead of closing: %v", err)
	}
	r3, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Body.Close()
	if r3.StatusCode != 200 {
		t.Errorf("/healthz during shutdown = %d, want 200", r3.StatusCode)
	}
}
