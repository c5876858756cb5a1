package serving

import (
	"math"
	"testing"
)

func TestStalenessWarmupInflation(t *testing.T) {
	cal := Calibration{ResidualSDM: 0.01, ConvergedTicks: 100}
	young := cal.staleness(10, 500, 20, 0.5, 0.1)
	converged := cal.staleness(200, 500, 20, 0.5, 0.1)
	if young.ResidualSDM <= converged.ResidualSDM {
		t.Errorf("young residual %v should exceed converged %v", young.ResidualSDM, converged.ResidualSDM)
	}
	if got := young.ResidualSDM; math.Abs(got-0.1) > 1e-12 { // 0.01 * 100/10
		t.Errorf("young residual = %v, want 0.1", got)
	}
	if converged.ResidualSDM != 0.01 {
		t.Errorf("converged residual = %v, want the floor 0.01", converged.ResidualSDM)
	}
}

func TestStalenessEvidenceFallsBackToTicks(t *testing.T) {
	cal := Calibration{ResidualSDM: 0.01, ConvergedTicks: 1}
	// No estimator samples (an ordering node): ticks are the evidence.
	withTicks := cal.staleness(400, 0, 20, 0.5, 0.1)
	withSamples := cal.staleness(400, 100, 20, 0.5, 0.1)
	if withTicks.RankCI >= withSamples.RankCI {
		// k=400 beats k=100: tighter interval.
		t.Errorf("tick-evidence CI %v should be tighter than sample CI %v", withTicks.RankCI, withSamples.RankCI)
	}
	wantCI := DefaultZ * math.Sqrt(0.25/400)
	if math.Abs(withTicks.RankCI-wantCI) > 1e-12 {
		t.Errorf("RankCI = %v, want %v", withTicks.RankCI, wantCI)
	}
}

func TestStalenessNoEvidence(t *testing.T) {
	cal := RankingCalibration
	st := cal.staleness(0, 0, 0, 0.5, 0.1)
	if st.RankCI != 1 || st.Bound != 1 {
		t.Errorf("no evidence should report worst-case bound: %+v", st)
	}
	if st.Confidence != 0 {
		t.Errorf("no evidence should report zero confidence, got %v", st.Confidence)
	}
}

func TestStalenessBoundIsMaxAndClamped(t *testing.T) {
	cal := Calibration{ResidualSDM: 0.4, ConvergedTicks: 1}
	st := cal.staleness(1000, 1000, 20, 0.5, 0.1)
	if st.Bound != 0.4 {
		t.Errorf("bound = %v, want the residual 0.4 (it dominates the CI %v)", st.Bound, st.RankCI)
	}
	// A node with a single tick inflates past 1; the bound clamps.
	st = cal.staleness(1, 0, 20, 0.5, 0.1)
	if st.Bound > 1 {
		t.Errorf("bound must clamp to 1, got %v", st.Bound)
	}
}

// A fresh joiner's inflated residual saturates to the vacuous bound
// 1.0; the Warming flag is what tells the client the node is merely
// young rather than a converged node reporting total disorder.
func TestStalenessWarmingGrace(t *testing.T) {
	def := Calibration{ResidualSDM: 0.01, ConvergedTicks: 100}
	if st := def.staleness(DefaultWarmupTicks-1, 0, 20, 0.5, 0.1); !st.Warming {
		t.Errorf("default grace not applied: %+v", st)
	}
	if st := def.staleness(DefaultWarmupTicks, 0, 20, 0.5, 0.1); st.Warming {
		t.Errorf("default grace too long: %+v", st)
	}
}

func TestStalenessStarvationDegrades(t *testing.T) {
	cal := Calibration{ResidualSDM: 0.01, ConvergedTicks: 100}
	healthy := cal.staleness(200, 500, 20, 0.5, 0.1)

	fed := cal.starve(healthy, 3)
	if fed.Degraded || fed.Bound != healthy.Bound {
		t.Errorf("gap below patience must not degrade: %+v", fed)
	}
	starved := cal.starve(healthy, 16)
	if !starved.Degraded {
		t.Errorf("gap 16 >= patience 8 must flag Degraded: %+v", starved)
	}
	if starved.Bound <= healthy.Bound {
		t.Errorf("starved bound %v must inflate past healthy %v", starved.Bound, healthy.Bound)
	}
	if got, want := starved.ResidualSDM, healthy.ResidualSDM*2; math.Abs(got-want) > 1e-12 {
		t.Errorf("starved residual = %v, want gap/patience inflation %v", got, want)
	}
	// Warming takes precedence: a fresh joiner has simply not received
	// traffic yet, which is youth, not a partition verdict.
	young := cal.staleness(1, 0, 20, 0.5, 0.1)
	if st := cal.starve(young, 16); st.Degraded || !st.Warming {
		t.Errorf("warming node must not be degraded: %+v", st)
	}
}

func TestStalenessConfidencePopulated(t *testing.T) {
	st := RankingCalibration.staleness(200, 500, 20, 0.5, 0.2)
	if !(st.Confidence > 0 && st.Confidence <= 1) {
		t.Errorf("confidence = %v, want (0,1]", st.Confidence)
	}
	far := RankingCalibration.staleness(200, 500, 20, 0.5, 0.4)
	if far.Confidence < st.Confidence {
		t.Errorf("more boundary distance should not lower confidence: %v < %v", far.Confidence, st.Confidence)
	}
}
