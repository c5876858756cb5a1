package sim

import (
	"testing"

	"github.com/gossipkit/slicing/internal/dist"
	"github.com/gossipkit/slicing/internal/fault"
	"github.com/gossipkit/slicing/internal/proto"
)

func faultBaseConfig(seed int64) Config {
	return Config{
		N: 300, Slices: 10, ViewSize: 12, Protocol: proto.Ranking,
		Estimators: windows(500),
		AttrDist:   dist.Uniform{Lo: 0, Hi: 1000}, Seed: seed,
	}
}

// TestDriftPerturbsAndTracks pins the drift family end to end: a step
// drift mid-run actually moves attributes (the injection counter and
// the ground-truth membership agree), disorder spikes when it lands,
// and the sliding-window estimator re-converges afterwards.
func TestDriftPerturbsAndTracks(t *testing.T) {
	cfg := faultBaseConfig(21)
	cfg.Faults = &fault.Plan{Drift: &fault.Drift{
		Kind: fault.DriftStep, Window: fault.Window{From: 40, To: 80},
		Frac: 0.3, Amp: 2000, // far outside the attr range: drifters jump to the top
	}}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(120)
	if got := e.FaultTally().DriftPerturbations; got == 0 {
		t.Fatal("step drift injected nothing")
	}
	atStep, _ := e.SDM().At(41)
	final, _ := e.SDM().Last()
	before, _ := e.SDM().At(39)
	if atStep <= before {
		t.Errorf("SDM did not spike at the drift step: before=%.4f at=%.4f", before, atStep)
	}
	if final.Value >= atStep/2 {
		t.Errorf("no re-convergence after drift: spike=%.4f final=%.4f", atStep, final.Value)
	}
}

// TestByzantinePollutionRisesAndDecays pins the byzantine family: while
// the lie window is open, the top slice's believed occupants include
// liars (pollution > 0); after the window closes the pollution decays.
func TestByzantinePollutionRisesAndDecays(t *testing.T) {
	cfg := faultBaseConfig(22)
	cfg.Faults = &fault.Plan{Byzantine: &fault.Byzantine{
		Policy: fault.LieAlwaysTop, Window: fault.Window{From: 30, To: 90},
		Frac: 0.1,
	}}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(160)
	if e.FaultTally().LiesInstalled == 0 {
		t.Fatal("no lies installed")
	}
	during, ok := e.Pollution().At(85)
	if !ok {
		t.Fatal("no pollution sample at cycle 85")
	}
	if during <= 0 {
		t.Errorf("pollution = %v at end of lie window, want > 0", during)
	}
	final, _ := e.Pollution().Last()
	if final.Value >= during {
		t.Errorf("pollution did not decay after heal: during=%.3f final=%.3f", during, final.Value)
	}
}

// TestPartitionDropsAndHeals pins the partition family: cross-group
// traffic is suppressed only while the window is open, and disorder
// recovers after the heal.
func TestPartitionDropsAndHeals(t *testing.T) {
	cfg := faultBaseConfig(23)
	cfg.Faults = &fault.Plan{Partition: &fault.Partition{
		Window: fault.Window{From: 20, To: 60}, Groups: 2,
	}}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(20)
	if d := e.FaultTally().PartitionDrops; d != 0 {
		t.Fatalf("partition dropped %d messages before its window opened", d)
	}
	e.Run(40)
	open := e.FaultTally().PartitionDrops
	if open == 0 {
		t.Fatal("open partition dropped nothing")
	}
	e.Run(60)
	if after := e.FaultTally().PartitionDrops; after != open {
		t.Errorf("partition kept dropping after heal: %d → %d", open, after)
	}
	atHeal, _ := e.SDM().At(60)
	final, _ := e.SDM().Last()
	if final.Value > atHeal {
		t.Errorf("no re-merge after heal: SDM %.4f at heal, %.4f at end", atHeal, final.Value)
	}
}

// TestChaosInjectsAllModes pins the message-chaos family: loss, dup and
// delay all fire inside the window, and the loss shows up in the
// dropped counter.
func TestChaosInjectsAllModes(t *testing.T) {
	cfg := faultBaseConfig(24)
	cfg.Faults = &fault.Plan{Chaos: []fault.Chaos{{
		Window: fault.Window{From: 10, To: 50},
		Loss:   0.2, Dup: 0.1, Delay: 0.15,
	}}}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(60)
	fc := e.FaultTally()
	if fc.ChaosDrops == 0 || fc.ChaosDups == 0 || fc.ChaosDelays == 0 {
		t.Errorf("chaos injections incomplete: %+v", fc)
	}
	if e.Delivered.Dropped < fc.ChaosDrops {
		t.Errorf("chaos drops (%d) not reflected in Delivered.Dropped (%d)",
			fc.ChaosDrops, e.Delivered.Dropped)
	}
}

// TestFaultsSeedDeterministic pins that a faulted run is a pure
// function of its seed: same seed → identical series and injection
// tallies, different seed → different injections.
func TestFaultsSeedDeterministic(t *testing.T) {
	build := func(seed int64) Config {
		cfg := faultBaseConfig(seed)
		cfg.Faults = allFaultsPlan()
		return cfg
	}
	run := func(cfg Config) (runFingerprint, FaultCounts) {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Run(40)
		return fingerprint(e), e.FaultTally()
	}
	fpA, fcA := run(build(31))
	fpB, fcB := run(build(31))
	if fpA != fpB || fcA != fcB {
		t.Fatalf("same-seed faulted runs diverged:\n %+v\n %+v", fcA, fcB)
	}
	_, fcC := run(build(32))
	if fcC == fcA {
		t.Error("different seed produced identical fault tallies — injection is not seed-sensitive")
	}
}
