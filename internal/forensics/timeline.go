package forensics

import (
	"fmt"
	"strings"

	"witag/internal/obs"
)

// Timeline alignment: placing flagged trials on the campaign's clock.
// Anomaly rules say *which* trial misbehaved; the timeline's windows say
// *when* in the campaign it ran. Joining the two turns "trial 41 had a
// 9-round loss burst" into "windows 5–6, trials 320–448 — the same
// stretch where goodput dipped".

// WindowRef names one timeline window an anomaly falls into.
type WindowRef struct {
	// Seq is the window's sequence number.
	Seq int `json:"seq"`
	// DoneStart/DoneEnd bound the window on the campaign's logical
	// clock (cumulative completed trials).
	DoneStart int64 `json:"done_start"`
	DoneEnd   int64 `json:"done_end"`
}

// AlignedAnomaly is one anomaly joined with the timeline windows whose
// trial spans contain its trial index. Windows is empty when the trial
// never appears in the timeline (e.g. the ring dropped its windows, or
// the trace and timeline come from different runs).
type AlignedAnomaly struct {
	Anomaly
	Windows []WindowRef `json:"windows"`
}

// AlignAnomalies maps each anomaly onto the timeline windows covering
// its trial index. A trial index can recur across segments (successive
// Runner.Each calls restart at 0), and trace events carry no segment, so
// an anomaly matches every window span containing its index —
// over-approximate but never silently wrong. Output order follows anoms;
// window refs are in window order.
func AlignAnomalies(anoms []Anomaly, wins []obs.TimelineWindow) []AlignedAnomaly {
	out := make([]AlignedAnomaly, 0, len(anoms))
	for _, an := range anoms {
		al := AlignedAnomaly{Anomaly: an}
		for _, w := range wins {
			for _, sp := range w.Spans {
				if sp.Contains(0, an.Trial) {
					al.Windows = append(al.Windows, WindowRef{
						Seq: w.Seq, DoneStart: w.DoneStart, DoneEnd: w.DoneEnd,
					})
					break
				}
			}
		}
		out = append(out, al)
	}
	return out
}

// RenderAlignment prints the anomaly→window join as an aligned table, one
// row per anomaly.
func RenderAlignment(aligned []AlignedAnomaly) string {
	var b strings.Builder
	if len(aligned) == 0 {
		b.WriteString("no anomalies to align\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%-10s %-5s %-34s %s\n", "rule", "trial", "labels", "windows")
	for _, al := range aligned {
		var wcol string
		if len(al.Windows) == 0 {
			wcol = "(not on timeline)"
		} else {
			parts := make([]string, len(al.Windows))
			for i, w := range al.Windows {
				parts[i] = fmt.Sprintf("#%d[%d,%d)", w.Seq, w.DoneStart, w.DoneEnd)
			}
			wcol = strings.Join(parts, " ")
		}
		fmt.Fprintf(&b, "%-10s %-5d %-34s %s\n", al.Rule, al.Trial, al.Labels, wcol)
	}
	return b.String()
}
