package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// layer names one span kind: a call the benchmark makes into a layer's
// public function, or a probe call it makes on that layer's behalf.
type layer uint8

const (
	lTrial         layer = iota // sim: one runner work item
	lBuild                      // experiments: testbed / world build
	lAdvance                    // channel: Environment.Advance
	lRound                      // core: System.QueryRound
	lEval                       // channel: Environment.Channel (probe)
	lDistortion                 // phy: DistortionAfterCPE (probe)
	lLinkModel                  // phy: SubframeSuccessProb (probe)
	lAMPDU                      // dot11: BuildQuery + Marshal (probe)
	lScoreboard                 // mac: Scoreboard record + block ACK (probe)
	lDetect                     // tag: DetectionProbability (probe)
	lCoverage                   // tag: CorruptionCoverageSchedule (probe)
	lFault                      // fault: Injector hooks (probe)
	lTraffic                    // traffic: Generator.RoundMask (probe)
	lCodecEncode                // core: Codec.Encode (probe)
	lCodecDecode                // core: Codec.Decode (probe)
	lLinkSend                   // link: Transferer.Send
	lFountainSend               // coding: FountainTransferer.Send
	lRSSend                     // coding: RSTransferer.Send
	lRSParity                   // coding: RS.Parity (probe)
	lRSReconstruct              // coding: RS.Reconstruct (probe)
	lFountainAdd                // coding: FountainDecoder.Add (probe)
	lTransmit                   // phy: Transmit
	lApplyChannel               // phy: ApplyChannel
	lEstimateCSI                // phy: EstimateCSI
	lReceive                    // phy: Receive
	lViterbi                    // phy: ViterbiDecode (probe)
	nLayers
)

// roundProbes are the probe layers that re-run work QueryRound does
// internally; core's self time is the round minus these.
var roundProbes = []layer{lEval, lDistortion, lLinkModel, lAMPDU, lScoreboard,
	lDetect, lCoverage, lFault, lTraffic}

// allocLayers are the spans whose heap allocations the allocation pass
// measures.
var allocLayers = map[layer]bool{lRound: true, lAMPDU: true, lReceive: true}

// counter names a count recorded at a layer boundary.
type counter uint8

const (
	cPSDUBytes      counter = iota // dot11: marshalled PSDU bytes
	cFramesOK                      // phy: bit-true frames decoded intact
	cLinkRounds                    // link: query rounds of ARQ transfers
	cLinkFramesSent                // link: frame attempts
	cLinkFramesOK                  // link: frame attempts delivered
	cDecodeAttempts                // coding: fountain + RS decode attempts
	cDecodeOK                      // coding: fountain + RS transfers decoded
	nCounters
)

// span is one timed call. Times are nanoseconds since the pass origin.
type span struct {
	layer  layer
	parent int32 // index of the causing span in the same recorder, -1 at the root
	calls  int32 // layer calls the span covers (probes batch a round's calls)
	start  int64
	end    int64
	allocs int64 // heap objects allocated (allocation pass only)
	bytes  int64 // heap bytes allocated (allocation pass only)
}

// recorder holds one runner work item's spans. Work items run on one
// goroutine each, so a recorder needs no locking. A nil recorder records
// nothing: the timed runs pass nil.
type recorder struct {
	origin time.Time
	allocs bool
	spans  []span
	counts [nCounters]float64
	ms     runtime.MemStats
}

func (r *recorder) begin(l layer, parent int32) int32 {
	if r == nil {
		return -1
	}
	s := span{layer: l, parent: parent}
	if r.allocs && allocLayers[l] {
		runtime.ReadMemStats(&r.ms)
		s.allocs, s.bytes = -int64(r.ms.Mallocs), -int64(r.ms.TotalAlloc)
	}
	s.start = int64(time.Since(r.origin))
	r.spans = append(r.spans, s)
	return int32(len(r.spans) - 1)
}

// end closes span id, which covered calls calls into its layer.
func (r *recorder) end(id int32, calls int) {
	if r == nil {
		return
	}
	s := &r.spans[id]
	s.end = int64(time.Since(r.origin))
	s.calls = int32(calls)
	if r.allocs && allocLayers[s.layer] {
		runtime.ReadMemStats(&r.ms)
		s.allocs += int64(r.ms.Mallocs)
		s.bytes += int64(r.ms.TotalAlloc)
	}
}

func (r *recorder) count(c counter, v float64) {
	if r != nil {
		r.counts[c] += v
	}
}

// pass is one traced execution of a workload: every work item's recorder
// plus the pass's wall time and worker count.
type pass struct {
	origin  time.Time
	allocs  bool
	workers int
	wall    time.Duration

	mu   sync.Mutex
	recs []*recorder
}

func newPass(workers int, allocs bool) *pass {
	return &pass{origin: time.Now(), allocs: allocs, workers: workers}
}

// recorder returns a fresh recorder for one work item; nil on a nil pass.
func (p *pass) recorder() *recorder {
	if p == nil {
		return nil
	}
	r := &recorder{origin: p.origin, allocs: p.allocs}
	p.mu.Lock()
	p.recs = append(p.recs, r)
	p.mu.Unlock()
	return r
}

// totals aggregates spans over one or more passes.
type totals struct {
	ns, calls, allocs, bytes [nLayers]float64
	spans                    [nLayers]int
	counts                   [nCounters]float64
	trialMs                  []float64
	busyNs, capacityNs       float64
	passes                   int
}

func (t *totals) add(p *pass) {
	t.passes++
	t.capacityNs += float64(p.wall) * float64(p.workers)
	for _, r := range p.recs {
		for _, s := range r.spans {
			d := float64(s.end - s.start)
			t.ns[s.layer] += d
			t.calls[s.layer] += float64(s.calls)
			t.allocs[s.layer] += float64(s.allocs)
			t.bytes[s.layer] += float64(s.bytes)
			t.spans[s.layer]++
			if s.layer == lTrial {
				t.trialMs = append(t.trialMs, d/1e6)
				t.busyNs += d
			}
		}
		for c, v := range r.counts {
			t.counts[c] += v
		}
	}
}

// perCall returns the mean of x over layer l's calls, 0 when l never ran.
func (t *totals) perCall(x *[nLayers]float64, l layer) float64 {
	return ratio(x[l], t.calls[l])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median returns the middle value of xs (mean of the middle two).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailQuantile is the highest of p50, p90, p99 and p99.9 that leaves at
// least ten samples beyond it, so the tail figure is never a single
// outlier.
func tailQuantile(n int) float64 {
	best := 0.5
	for _, q := range []float64{0.9, 0.99, 0.999} {
		if float64(n)*(1-q) >= 10 {
			best = q
		}
	}
	return best
}
