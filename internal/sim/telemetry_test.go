package sim

import (
	"testing"

	"github.com/gossipkit/slicing/internal/dist"
	"github.com/gossipkit/slicing/internal/proto"
	"github.com/gossipkit/slicing/internal/telemetry"
)

// TestTelemetryDoesNotPerturbRun pins the determinism contract: an
// instrumented engine produces bit-identical series to an
// uninstrumented one, and the gauges land on the final cycle's values.
func TestTelemetryDoesNotPerturbRun(t *testing.T) {
	cfg := Config{
		N: 300, Slices: 4, ViewSize: 12,
		Protocol: proto.Ordering, RecordGDM: true,
		AttrDist: dist.Uniform{Lo: 0, Hi: 1}, Seed: 7,
	}
	plain, err := Run(cfg, 25)
	if err != nil {
		t.Fatalf("Run (plain): %v", err)
	}

	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New (instrumented): %v", err)
	}
	e.Run(25)

	instSDM, plainSDM := e.SDM().Points, plain.SDM.Points
	if len(instSDM) != len(plainSDM) {
		t.Fatalf("series length %d vs %d", len(instSDM), len(plainSDM))
	}
	for i := range instSDM {
		if instSDM[i] != plainSDM[i] {
			t.Fatalf("cycle %d: instrumented SDM %v != plain %v", i, instSDM[i], plainSDM[i])
		}
	}
	if e.Delivered != plain.Messages {
		t.Errorf("message counts diverge: %+v vs %+v", e.Delivered, plain.Messages)
	}

	if got := e.tel.cycle.Value(); got != 25 {
		t.Errorf("cycle gauge = %v, want 25", got)
	}
	if got := e.tel.nodes.Value(); got != float64(e.N()) {
		t.Errorf("nodes gauge = %v, want %d", got, e.N())
	}
	last := instSDM[len(instSDM)-1].Value
	if got := e.tel.sdm.Value(); got != last {
		t.Errorf("sdm gauge = %v, want final SDM %v", got, last)
	}
	for ix, h := range e.tel.phases {
		if h.Count() != 25 {
			t.Errorf("phase %d histogram count = %d, want 25", ix, h.Count())
		}
	}
}

// TestMembershipSubPhasesSumExactly pins the sub-phase splits: on a
// Cyclon engine the stage, reply and absorb sub-phases are each
// non-zero and add up to MembershipNS to the nanosecond, and on the
// uniform oracle all of the membership time is stage. On either, and
// under either protocol, tick and commit are each non-zero and add up
// to ProtocolNS to the nanosecond.
func TestMembershipSubPhasesSumExactly(t *testing.T) {
	for _, m := range []MembershipKind{CyclonViews, UniformOracle} {
		t.Run(m.String(), func(t *testing.T) {
			for _, pk := range []proto.Kind{proto.Ranking, proto.Ordering} {
				e, err := New(Config{
					N: 2000, Slices: 10, ViewSize: 20,
					Protocol: pk, Membership: m,
					AttrDist: dist.Uniform{Lo: 0, Hi: 1}, Seed: 3,
				})
				if err != nil {
					t.Fatal(err)
				}
				e.Run(4)
				p := e.Phases()
				if sum := p.ProtocolTickNS + p.ProtocolCommitNS; sum != p.ProtocolNS {
					t.Errorf("%v: tick %d + commit %d = %d, want ProtocolNS %d",
						pk, p.ProtocolTickNS, p.ProtocolCommitNS, sum, p.ProtocolNS)
				}
				if p.ProtocolTickNS <= 0 || p.ProtocolCommitNS <= 0 {
					t.Errorf("%v: protocol sub-phases tick %d commit %d, want each > 0",
						pk, p.ProtocolTickNS, p.ProtocolCommitNS)
				}
				sum := p.MembershipStageNS + p.MembershipReplyNS + p.MembershipAbsorbNS
				if sum != p.MembershipNS {
					t.Errorf("%v: stage %d + reply %d + absorb %d = %d, want MembershipNS %d",
						pk, p.MembershipStageNS, p.MembershipReplyNS, p.MembershipAbsorbNS, sum, p.MembershipNS)
				}
				if p.Total() != p.ChurnNS+p.MembershipNS+p.ProtocolNS+p.MeasureNS {
					t.Errorf("%v: Total %d is not the sum of the four top-level phases", pk, p.Total())
				}
				if m == UniformOracle {
					if p.MembershipReplyNS != 0 || p.MembershipAbsorbNS != 0 || p.MembershipStageNS <= 0 {
						t.Errorf("%v: oracle sub-phases stage %d reply %d absorb %d, want all time in stage",
							pk, p.MembershipStageNS, p.MembershipReplyNS, p.MembershipAbsorbNS)
					}
					continue
				}
				if p.MembershipStageNS <= 0 || p.MembershipReplyNS <= 0 || p.MembershipAbsorbNS <= 0 {
					t.Errorf("%v: sub-phases stage %d reply %d absorb %d, want each > 0",
						pk, p.MembershipStageNS, p.MembershipReplyNS, p.MembershipAbsorbNS)
				}
			}
		})
	}
}
