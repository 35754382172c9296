// Package cliflags holds the contracts the CLIs share instead of
// restating them over main packages.
//
// Flag validation, for all four CLIs (witag-bench, witag-sim,
// witag-trace, witag-gate): every selector and path flag is checked
// before any work starts, and a bad value produces one clear error
// naming the flag and the valid choices — a typo must never silently run
// nothing, and an unwritable output path must fail now, not after
// minutes of sweeping.
//
// The run contract, for the two campaign CLIs (witag-bench, witag-sim):
// Main is their main preamble (-version, signals, exit 1), and Run
// registers and validates their shared observability flags, opens the
// campaign scope those flags describe, and on Close writes the trace
// ring and timeline and appends the run's ledger record.
package cliflags

import (
	"fmt"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"strings"

	"witag/internal/fault"
	"witag/internal/traffic"
)

// LogLevels lists the accepted -log-level values, mildest first.
var LogLevels = []string{"debug", "info", "warn", "error"}

// LogLevel parses a -log-level selector into its slog level.
func LogLevel(flagName, val string) (slog.Level, error) {
	switch val {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("%s: unknown value %q (valid: %s)", flagName, val, strings.Join(LogLevels, ", "))
}

// Choice rejects val unless it appears in valid, naming the flag and the
// full list in the error. An empty val passes when allowEmpty is set
// (the "feature off" convention the CLIs share).
func Choice(flagName, val string, valid []string, allowEmpty bool) error {
	if val == "" && allowEmpty {
		return nil
	}
	for _, v := range valid {
		if v == val {
			return nil
		}
	}
	return fmt.Errorf("%s: unknown value %q (valid: %s)", flagName, val, strings.Join(valid, ", "))
}

// FaultProfile validates a -fault selector against the named profiles.
func FaultProfile(flagName, val string, allowEmpty bool) error {
	if val == "" && allowEmpty {
		return nil
	}
	if _, err := fault.Named(val); err != nil {
		return fmt.Errorf("%s: %w", flagName, err)
	}
	return nil
}

// TrafficProfile validates a -traffic selector against the named ambient
// profiles. "all" passes when allowAll is set (the sweep-grid form).
func TrafficProfile(flagName, val string, allowEmpty, allowAll bool) error {
	if (val == "" && allowEmpty) || (val == "all" && allowAll) {
		return nil
	}
	if _, err := traffic.Named(val); err != nil {
		return fmt.Errorf("%s: %w", flagName, err)
	}
	return nil
}

// OutputDir ensures dir exists (creating it) and is writable — the check
// is the creation, so a read-only parent fails here with the flag named.
func OutputDir(flagName, dir string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("%s: %w", flagName, err)
	}
	return nil
}

// InputDir requires dir to exist and be a directory.
func InputDir(flagName, dir string) error {
	if dir == "" {
		return fmt.Errorf("%s: directory is required", flagName)
	}
	fi, err := os.Stat(dir)
	if err != nil {
		return fmt.Errorf("%s: %w", flagName, err)
	}
	if !fi.IsDir() {
		return fmt.Errorf("%s: %s is not a directory", flagName, dir)
	}
	return nil
}

// InputFile requires path (when given) to exist and be a regular file —
// the read-side twin of OutputFile. Empty means the flag is unset and
// passes.
func InputFile(flagName, path string) error {
	if path == "" {
		return nil
	}
	fi, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("%s: %w", flagName, err)
	}
	if fi.IsDir() {
		return fmt.Errorf("%s: %s is a directory, not a file", flagName, path)
	}
	return nil
}

// OutputFile requires path's parent directory to exist, so the file
// create at the end of a run cannot be the first time we learn the
// destination is bogus. It does not create the file (some callers create
// it immediately themselves; others only on exit).
func OutputFile(flagName, path string) error {
	if path == "" {
		return nil
	}
	dir := filepath.Dir(path)
	fi, err := os.Stat(dir)
	if err != nil {
		return fmt.Errorf("%s: %w", flagName, err)
	}
	if !fi.IsDir() {
		return fmt.Errorf("%s: %s is not a directory", flagName, dir)
	}
	return nil
}

// MetricsAddr validates a -metrics-addr value up front: it must parse as
// host:port and be bindable right now. The probe listener is closed
// immediately; the real bind follows within the same invocation, so the
// window for another process to steal the port is negligible — and the
// failure mode is the same clear error, just later.
func MetricsAddr(flagName, addr string) error {
	if addr == "" {
		return nil
	}
	if _, _, err := net.SplitHostPort(addr); err != nil {
		return fmt.Errorf("%s: %q is not host:port: %w", flagName, addr, err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("%s: cannot bind %q: %w", flagName, addr, err)
	}
	return ln.Close()
}
