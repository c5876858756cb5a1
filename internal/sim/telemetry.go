package sim

import (
	"time"

	"github.com/gossipkit/slicing/internal/telemetry"
)

// Sim-engine metric names.
const (
	// MetricCycle is the number of completed cycles (gauge).
	MetricCycle = "slicing_sim_cycle"
	// MetricNodes is the live population size (gauge).
	MetricNodes = "slicing_sim_nodes"
	// MetricSDM is the latest slice disorder measure (gauge).
	MetricSDM = "slicing_sim_sdm"
	// MetricGDM is the latest global disorder measure (gauge; only
	// written under Config.RecordGDM).
	MetricGDM = "slicing_sim_gdm"
	// MetricPhaseSeconds is the wall-clock time of each cycle phase,
	// labeled phase=churn|membership|protocol|measure (histogram).
	MetricPhaseSeconds = "slicing_sim_phase_seconds"
	// MetricFaults counts fault-plane injections, labeled
	// kind=drift|lie|partitionDrop|chaosDrop|chaosDup|chaosDelay
	// (counter; stays 0 without a Config.Faults plan).
	MetricFaults = "slicing_sim_faults_injected_total"
	// MetricPollution is the latest byzantine slice pollution: the liar
	// fraction of the target slice's believed occupants (gauge).
	MetricPollution = "slicing_sim_slice_pollution"
)

// Fault-counter indices into engineTel.faults.
const (
	faultIxDrift = iota
	faultIxLie
	faultIxPartDrop
	faultIxChaosDrop
	faultIxChaosDup
	faultIxChaosDelay
	faultKindCount
)

// Phase indices into engineTel.phases.
const (
	phaseIxChurn = iota
	phaseIxMembership
	phaseIxProtocol
	phaseIxMeasure
	phaseCount
)

// Sub-phase indices into Engine.subNS, in cycle order: the membership
// round's three, then the protocol round's two.
const (
	memberIxStage = iota
	memberIxReply
	memberIxAbsorb
	protoIxTick
	protoIxCommit
	subPartCount
)

// engineTel is the engine's instrument set; nil (the default) keeps the
// cycle loop free of clock reads. The gauges are written by the engine's
// single driving goroutine and read atomically at scrape time, so a
// concurrent /metrics scrape observes the last completed cycle without
// touching engine state.
type engineTel struct {
	cycle, nodes, sdm, gdm *telemetry.Gauge
	pollution              *telemetry.Gauge
	phases                 [phaseCount]*telemetry.Histogram
	faults                 [faultKindCount]*telemetry.Counter
}

func newEngineTel(reg *telemetry.Registry) *engineTel {
	phase := func(name string) *telemetry.Histogram {
		return reg.Histogram(MetricPhaseSeconds,
			"Wall-clock seconds per simulation cycle phase.",
			telemetry.LatencyBuckets, telemetry.L("phase", name))
	}
	t := &engineTel{
		cycle: reg.Gauge(MetricCycle, "Completed simulation cycles."),
		nodes: reg.Gauge(MetricNodes, "Live simulated population size."),
		sdm:   reg.Gauge(MetricSDM, "Latest slice disorder measure."),
		gdm:   reg.Gauge(MetricGDM, "Latest global disorder measure (RecordGDM only)."),
	}
	t.phases[phaseIxChurn] = phase("churn")
	t.phases[phaseIxMembership] = phase("membership")
	t.phases[phaseIxProtocol] = phase("protocol")
	t.phases[phaseIxMeasure] = phase("measure")
	t.pollution = reg.Gauge(MetricPollution,
		"Latest byzantine slice pollution: liar fraction of the target slice.")
	faultKind := func(name string) *telemetry.Counter {
		return reg.Counter(MetricFaults,
			"Fault-plane injections performed, by kind.",
			telemetry.L("kind", name))
	}
	t.faults[faultIxDrift] = faultKind("drift")
	t.faults[faultIxLie] = faultKind("lie")
	t.faults[faultIxPartDrop] = faultKind("partitionDrop")
	t.faults[faultIxChaosDrop] = faultKind("chaosDrop")
	t.faults[faultIxChaosDup] = faultKind("chaosDup")
	t.faults[faultIxChaosDelay] = faultKind("chaosDelay")
	return t
}

// phaseClock times the phases of one cycle. Every lap accumulates into
// the engine's phaseNS totals (so sweep artifacts can report where the
// cycle time goes even with telemetry off) and additionally feeds the
// phase histograms when a registry is attached.
type phaseClock struct {
	e    *Engine
	mark time.Time
	// part is the sub-phase in progress and partMark the clock read it
	// began at; split and the membership and protocol laps close it.
	part     int
	partMark time.Time
}

func (e *Engine) startPhases() phaseClock {
	return phaseClock{e: e, mark: time.Now()}
}

// lap adds the time since the previous mark to the indexed phase total
// (and histogram, if instrumented) and re-marks. Timing reads the wall
// clock only — never the engine's RNG streams — so instrumented and
// uninstrumented runs are bit-identical. The membership and protocol
// laps also close the sub-phase in progress off the same clock read, so
// each phase's sub-phases sum to its total exactly; every lap then opens
// the first sub-phase of the phase that follows it.
func (pc *phaseClock) lap(ix int) {
	now := time.Now()
	d := now.Sub(pc.mark)
	pc.e.phaseNS[ix] += d.Nanoseconds()
	if ix == phaseIxMembership || ix == phaseIxProtocol {
		pc.e.subNS[pc.part] += now.Sub(pc.partMark).Nanoseconds()
	}
	if pc.e.tel != nil {
		pc.e.tel.phases[ix].Observe(d.Seconds())
	}
	pc.mark, pc.part, pc.partMark = now, memberIxStage, now
	if ix == phaseIxMembership {
		pc.part = protoIxTick
	}
}

// split closes the sub-phase in progress and opens the next one. A
// round that never splits books all of its time to its first
// sub-phase: the uniform oracle's to stage, an empty population's
// protocol round to tick.
func (pc *phaseClock) split() {
	now := time.Now()
	pc.e.subNS[pc.part] += now.Sub(pc.partMark).Nanoseconds()
	pc.part++
	pc.partMark = now
}

// PhaseNanos is the cumulative wall-clock time spent in each cycle
// phase since the engine was built. The split mirrors the telemetry
// phase histograms: churn (join/leave/replace plus fault injection),
// membership (the view-exchange compute+commit round), protocol (the
// slicing tick and swap/update delivery), and measure (per-cycle
// disorder measurements).
//
// Membership is further split into three sub-phases taken from the
// same clock reads, so they sum to MembershipNS exactly: stage (aging,
// partner selection, freezing the requests and sorting them by
// target), reply (commit half A: every target replies to and absorbs
// its requests) and absorb (commit half B: every initiator absorbs its
// reply). The uniform oracle books all of its membership time to
// stage. Protocol splits the same way into tick (the coordinate
// snapshot and every node's partner choice) and commit (delivering the
// ticked messages), summing to ProtocolNS exactly. Total sums the four
// top-level phases only.
type PhaseNanos struct {
	ChurnNS            int64 `json:"churn_ns"`
	MembershipNS       int64 `json:"membership_ns"`
	MembershipStageNS  int64 `json:"membership_stage_ns"`
	MembershipReplyNS  int64 `json:"membership_reply_ns"`
	MembershipAbsorbNS int64 `json:"membership_absorb_ns"`
	ProtocolNS         int64 `json:"protocol_ns"`
	ProtocolTickNS     int64 `json:"protocol_tick_ns"`
	ProtocolCommitNS   int64 `json:"protocol_commit_ns"`
	MeasureNS          int64 `json:"measure_ns"`
}

// Total returns the summed phase time.
func (p PhaseNanos) Total() int64 {
	return p.ChurnNS + p.MembershipNS + p.ProtocolNS + p.MeasureNS
}

// Phases returns the engine's cumulative per-phase wall-clock totals.
func (e *Engine) Phases() PhaseNanos {
	return PhaseNanos{
		ChurnNS:            e.phaseNS[phaseIxChurn],
		MembershipNS:       e.phaseNS[phaseIxMembership],
		MembershipStageNS:  e.subNS[memberIxStage],
		MembershipReplyNS:  e.subNS[memberIxReply],
		MembershipAbsorbNS: e.subNS[memberIxAbsorb],
		ProtocolNS:         e.phaseNS[phaseIxProtocol],
		ProtocolTickNS:     e.subNS[protoIxTick],
		ProtocolCommitNS:   e.subNS[protoIxCommit],
		MeasureNS:          e.phaseNS[phaseIxMeasure],
	}
}
