package obs

import (
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

var updateHTTP = flag.Bool("update", false, "rewrite the HTTP surface goldens")

// goldenServer serves one campaign holding fixed counters, a gauge and a
// histogram, so every response below is a pure function of this setup.
func goldenServer(t *testing.T) *httptest.Server {
	t.Helper()
	c := NewCampaign("golden", CampaignOptions{})
	c.Registry.Counter("core.rounds").Add(1234)
	c.Registry.Counter("link.segments_sent").Add(56)
	c.Registry.Gauge("sim.workers", Volatile).Set(4)
	lat := c.Registry.Histogram("core.round_ns", []int64{100, 1000, 10000})
	for _, v := range []int64{50, 150, 150, 5000, 20000} {
		lat.Observe(v)
	}
	// One progress event (the first always publishes; the hour-long
	// interval suppresses the rest), so events.published reads 1.
	c.MinEventInterval = time.Hour
	c.ProgressStart(4)
	c.ProgressDone(1)
	c.ProgressDone(2)
	srv := httptest.NewServer(NewMux(c))
	t.Cleanup(srv.Close)
	return srv
}

var wallMs = regexp.MustCompile(`"wall_ms": \d+`)

// TestHTTPSurfaceMatchesGolden pins the bodies the observability mux
// serves for one campaign. Only wall_ms (wall clock) is masked; the
// witag key is cut out of /debug/vars because the rest of that body is
// the process's own expvars.
func TestHTTPSurfaceMatchesGolden(t *testing.T) {
	srv := goldenServer(t)
	cases := []struct{ name, path string }{
		{"metrics.prom", "/metrics"},
		{"campaign_metrics.prom", "/campaigns/golden/metrics"},
		{"campaign_metrics.json", "/campaigns/golden/metrics?format=json"},
		{"campaigns.json", "/campaigns"},
		{"campaign.json", "/campaigns/golden"},
		{"debug_vars_witag.json", "/debug/vars"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := get(t, srv.URL+tc.path)
			if code != 200 {
				t.Fatalf("%s = %d", tc.path, code)
			}
			got := []byte(wallMs.ReplaceAllString(body, `"wall_ms": 0`))
			if tc.path == "/debug/vars" {
				var vars map[string]json.RawMessage
				if err := json.Unmarshal(got, &vars); err != nil {
					t.Fatalf("/debug/vars is not JSON: %v", err)
				}
				got = append(vars["witag"], '\n')
			}
			path := filepath.Join("testdata", "http", tc.name+".golden")
			if *updateHTTP {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if string(got) != string(want) {
				t.Errorf("%s moved from %s:\n got:\n%s\nwant:\n%s", tc.path, path, got, want)
			}
		})
	}
}
