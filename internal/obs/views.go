package obs

// Typed instrument views. Each instrumented package gets a struct of
// pre-resolved instruments so its hot path never does a map lookup; the
// names below are the complete metric namespace of the simulator and the
// single place it is defined.

// CoreMetrics instruments core.System.QueryRound.
type CoreMetrics struct {
	Rounds        *Counter   // completed query rounds
	Detections    *Counter   // rounds where the tag detected the trigger
	TriggerMisses *Counter   // rounds where it did not (noise or injected)
	BALosses      *Counter   // rounds erased by a lost block ACK
	SubframesOK   *Counter   // subframe verdicts: decoded at the AP
	SubframesLost *Counter   // subframe verdicts: lost
	Bits          *Counter   // tag bits carried across all rounds
	BitErrors     *Counter   // tag bit errors across all rounds
	BackoffSlots  *Counter   // DCF backoff slots counted down
	BusySlots     *Counter   // backoff slots frozen by other traffic
	RoundAirtime  *Histogram // per-round airtime, µs
}

// NewCoreMetrics registers the core namespace on r.
func NewCoreMetrics(r *Registry) *CoreMetrics {
	return &CoreMetrics{
		Rounds:        r.Counter("core.rounds"),
		Detections:    r.Counter("core.rounds_detected"),
		TriggerMisses: r.Counter("core.rounds_trigger_missed"),
		BALosses:      r.Counter("core.rounds_ba_lost"),
		SubframesOK:   r.Counter("core.subframes_ok"),
		SubframesLost: r.Counter("core.subframes_lost"),
		Bits:          r.Counter("core.bits"),
		BitErrors:     r.Counter("core.bit_errors"),
		BackoffSlots:  r.Counter("core.backoff_slots"),
		BusySlots:     r.Counter("core.busy_slots"),
		RoundAirtime:  r.Histogram("core.round_airtime_us", Exp2Bounds(256, 14)),
	}
}

// LinkMetrics instruments ARQ transfers: link.Carrier flushes each
// link.Transferer transfer's totals here, and the ARQ loop counts its
// ladder moves and backoff waits live.
type LinkMetrics struct {
	TransfersStarted   *Counter
	TransfersDelivered *Counter
	TransfersFailed    *Counter // not delivered: budget exhausted, error or cancellation
	SegmentsSent       *Counter // frame attempts, including failures
	Retries            *Counter
	RoundFailures      *Counter // attempts erased by missed trigger / lost BA
	DesyncErrors       *Counter
	ResidualErrors     *Counter
	CorrectedBits      *Counter
	LadderUp           *Counter   // coding escalations (toward heavier protection)
	LadderDown         *Counter   // relaxations
	BackoffWaits       *Counter   // backoff sleeps taken
	BackoffWait        *Histogram // per-backoff simulated wait, µs
}

// NewLinkMetrics registers the link namespace on r.
func NewLinkMetrics(r *Registry) *LinkMetrics {
	return &LinkMetrics{
		TransfersStarted:   r.Counter("link.transfers_started"),
		TransfersDelivered: r.Counter("link.transfers_delivered"),
		TransfersFailed:    r.Counter("link.transfers_failed"),
		SegmentsSent:       r.Counter("link.segments_sent"),
		Retries:            r.Counter("link.retries"),
		RoundFailures:      r.Counter("link.round_failures"),
		DesyncErrors:       r.Counter("link.desync_errors"),
		ResidualErrors:     r.Counter("link.residual_errors"),
		CorrectedBits:      r.Counter("link.corrected_bits"),
		LadderUp:           r.Counter("link.ladder_up"),
		LadderDown:         r.Counter("link.ladder_down"),
		BackoffWaits:       r.Counter("link.backoff_waits"),
		BackoffWait:        r.Histogram("link.backoff_wait_us", Exp2Bounds(512, 10)),
	}
}

// FaultMetrics counts injections per event type (fault.Injector).
type FaultMetrics struct {
	SubframesLost *Counter
	TriggerMisses *Counter
	BALosses      *Counter
	Brownouts     *Counter
}

// NewFaultMetrics registers the fault namespace on r.
func NewFaultMetrics(r *Registry) *FaultMetrics {
	return &FaultMetrics{
		SubframesLost: r.Counter("fault.subframes_lost"),
		TriggerMisses: r.Counter("fault.trigger_misses"),
		BALosses:      r.Counter("fault.ba_losses"),
		Brownouts:     r.Counter("fault.brownouts"),
	}
}

// CodingMetrics instruments the coded transfers (coding.FountainTransferer
// and coding.RSTransferer): link.Carrier flushes each transfer's totals
// here, and the outer loops count symbols, shards, RS reconstructions and
// parity resizes live (RS's last two are flushed again by the carrier).
type CodingMetrics struct {
	TransfersStarted   *Counter
	TransfersDelivered *Counter
	TransfersFailed    *Counter
	FramesSent         *Counter // symbol/shard frames put on the air
	SymbolsSent        *Counter // fountain encoded symbols
	ShardsSent         *Counter // RS data+parity shards
	FrameErasures      *Counter // frames erased by missed trigger / lost BA
	FrameErrors        *Counter // frames lost to a decode failure or a bad header (desync + residual)
	DecodeAttempts     *Counter // peeling passes / RS reconstructions
	ParityResizes      *Counter // GuardRider parity re-sizing events
}

// NewCodingMetrics registers the coding namespace on r.
func NewCodingMetrics(r *Registry) *CodingMetrics {
	return &CodingMetrics{
		TransfersStarted:   r.Counter("coding.transfers_started"),
		TransfersDelivered: r.Counter("coding.transfers_delivered"),
		TransfersFailed:    r.Counter("coding.transfers_failed"),
		FramesSent:         r.Counter("coding.frames_sent"),
		SymbolsSent:        r.Counter("coding.symbols_sent"),
		ShardsSent:         r.Counter("coding.shards_sent"),
		FrameErasures:      r.Counter("coding.frame_erasures"),
		FrameErrors:        r.Counter("coding.frame_errors"),
		DecodeAttempts:     r.Counter("coding.decode_attempts"),
		ParityResizes:      r.Counter("coding.parity_resizes"),
	}
}

// TrafficMetrics instruments traffic.Generator (ambient A-MPDU bursts).
type TrafficMetrics struct {
	Rounds        *Counter // rounds a generator masked
	Bursts        *Counter // ambient bursts drawn
	SubframesMask *Counter // subframes occupied by ambient traffic
	StateSwitches *Counter // MMPP state transitions
}

// NewTrafficMetrics registers the traffic namespace on r.
func NewTrafficMetrics(r *Registry) *TrafficMetrics {
	return &TrafficMetrics{
		Rounds:        r.Counter("traffic.rounds"),
		Bursts:        r.Counter("traffic.bursts"),
		SubframesMask: r.Counter("traffic.subframes_masked"),
		StateSwitches: r.Counter("traffic.state_switches"),
	}
}

// RunnerMetrics instruments sim.Runner. Trial wall time, worker busy time
// and the runtime allocation deltas are all real-time or scheduling
// dependent, so those instruments are volatile: they show up on /metrics
// but are excluded from the deterministic snapshot the worker-count suite
// compares.
type RunnerMetrics struct {
	TrialsStarted *Counter
	TrialsDone    *Counter
	TrialsFailed  *Counter
	TrialWall     *Histogram // per-trial wall time, ms (volatile)
	TrialWallUs   *Histogram // per-trial wall time, µs (volatile) — perf-report denominator
	WorkerBusy    *Histogram // per-worker busy wall time across a campaign, ms (volatile)
	AllocBytes    *Counter   // heap bytes allocated across campaigns (volatile)
	AllocObjects  *Counter   // heap objects allocated across campaigns (volatile)
	GCCycles      *Counter   // GC cycles completed across campaigns (volatile)
}

// NewRunnerMetrics registers the runner namespace on r.
func NewRunnerMetrics(r *Registry) *RunnerMetrics {
	return &RunnerMetrics{
		TrialsStarted: r.Counter("runner.trials_started"),
		TrialsDone:    r.Counter("runner.trials_done"),
		TrialsFailed:  r.Counter("runner.trials_failed"),
		TrialWall:     r.Histogram("runner.trial_wall_ms", Exp2Bounds(1, 16), Volatile),
		TrialWallUs:   r.Histogram("runner.trial_wall_us", Exp2Bounds(64, 22), Volatile),
		WorkerBusy:    r.Histogram("runner.worker_busy_ms", Exp2Bounds(1, 20), Volatile),
		AllocBytes:    r.Counter("runner.alloc_bytes", Volatile),
		AllocObjects:  r.Counter("runner.alloc_objects", Volatile),
		GCCycles:      r.Counter("runner.gc_cycles", Volatile),
	}
}

// Observer bundles one registry's typed views with an optional trace
// recorder; it is the single handle threaded through core, link, fault
// and sim. A nil *Observer disables all instrumentation; a non-nil one
// always has every view populated (construct via NewObserver).
type Observer struct {
	Registry *Registry
	Trace    *Recorder // may be nil: metrics without tracing

	Core    *CoreMetrics
	Link    *LinkMetrics
	Fault   *FaultMetrics
	Coding  *CodingMetrics
	Traffic *TrafficMetrics
	Runner  *RunnerMetrics
	Spans   *Spans // phase-attribution timers; nil disables span timing only
}

// NewObserver wires every instrument view onto reg. trace may be nil.
func NewObserver(reg *Registry, trace *Recorder) *Observer {
	if reg == nil {
		reg = NewRegistry()
	}
	return &Observer{
		Registry: reg,
		Trace:    trace,
		Core:     NewCoreMetrics(reg),
		Link:     NewLinkMetrics(reg),
		Fault:    NewFaultMetrics(reg),
		Coding:   NewCodingMetrics(reg),
		Traffic:  NewTrafficMetrics(reg),
		Runner:   NewRunnerMetrics(reg),
		Spans:    NewSpans(reg),
	}
}
