package buildinfo

import (
	"strings"
	"testing"
)

func TestCurrentPrefersEnvSHA(t *testing.T) {
	t.Setenv("WITAG_GIT_SHA", "abc123def456")
	info := Current("witag-bench")
	if info.Tool != "witag-bench" || info.GitSHA != "abc123def456" || info.Dirty {
		t.Fatalf("Current = %+v", info)
	}
	if !strings.HasPrefix(info.GoVersion, "go") {
		t.Errorf("GoVersion = %q, want a go1.x string", info.GoVersion)
	}
	if got := GitSHA(); got != "abc123def456" {
		t.Errorf("GitSHA = %q", got)
	}
}

func TestStringRendersVersionLine(t *testing.T) {
	i := Info{Tool: "witag-sim", GitSHA: "abc123def456", GoVersion: "go1.22.0"}
	if got := i.String(); got != "witag-sim abc123def456 (go1.22.0)" {
		t.Errorf("String = %q", got)
	}
	i.Dirty = true
	if got := i.String(); !strings.Contains(got, "abc123def456+dirty") {
		t.Errorf("dirty String = %q", got)
	}
	empty := Info{Tool: "t", GoVersion: "go1.22.0"}
	if got := empty.String(); !strings.Contains(got, "unknown") {
		t.Errorf("no-SHA String = %q, want unknown marker", got)
	}
}

func TestShortClipsFullRevisions(t *testing.T) {
	full := "0123456789abcdef0123456789abcdef01234567"
	if got := short(full); got != "0123456789ab" {
		t.Errorf("short(%q) = %q", full, got)
	}
	if got := short("abc"); got != "abc" {
		t.Errorf("short must pass short SHAs through, got %q", got)
	}
}

func TestPrintWritesOneLine(t *testing.T) {
	t.Setenv("WITAG_GIT_SHA", "feedface0000")
	var b strings.Builder
	Print(&b, "witag-trace")
	out := b.String()
	if !strings.HasPrefix(out, "witag-trace feedface0000 (go") || !strings.HasSuffix(out, ")\n") {
		t.Errorf("Print wrote %q", out)
	}
}
