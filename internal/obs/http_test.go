package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// hubWithRounds returns a hub whose one campaign has counted n rounds.
func hubWithRounds(t *testing.T, n int64) *Hub {
	t.Helper()
	h := NewHub()
	c, err := h.Register("a", CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c.Registry.Counter("core.rounds").Add(n)
	return h
}

func TestServeEndpoints(t *testing.T) {
	srv, err := ServeHub("127.0.0.1:0", hubWithRounds(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	base := fmt.Sprintf("http://%s", srv.Addr)

	code, body := get(t, base+"/metrics")
	if code != 200 || !strings.Contains(body, "witag_core_rounds 7") {
		t.Fatalf("/metrics: code=%d body=%q", code, body)
	}

	code, body = get(t, base+"/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars: code=%d", code)
	}
	var vars struct {
		Witag Snapshot `json:"witag"`
	}
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, body)
	}
	if vars.Witag.Counters["core.rounds"] != 7 {
		t.Fatalf("expvar snapshot counter = %d, want 7", vars.Witag.Counters["core.rounds"])
	}

	code, body = get(t, base+"/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: code=%d", code)
	}
	if code, _ = get(t, base+"/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline: code=%d", code)
	}

	if code, _ = get(t, base+"/nope"); code != 404 {
		t.Fatalf("unknown path: code=%d, want 404", code)
	}
}

// Two servers over two hubs must coexist: the layer keeps no
// process-global state (no expvar.Publish, no DefaultServeMux).
func TestTwoServersCoexist(t *testing.T) {
	a, err := ServeHub("127.0.0.1:0", hubWithRounds(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ServeHub("127.0.0.1:0", hubWithRounds(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if _, body := get(t, fmt.Sprintf("http://%s/metrics", a.Addr)); !strings.Contains(body, "witag_core_rounds 1") {
		t.Fatalf("server A: %q", body)
	}
	if _, body := get(t, fmt.Sprintf("http://%s/metrics", b.Addr)); !strings.Contains(body, "witag_core_rounds 2") {
		t.Fatalf("server B: %q", body)
	}
}
