package serving

import (
	"math"

	"github.com/gossipkit/slicing/internal/stats"
)

// Calibration anchors the staleness bounds the query plane reports to
// the convergence data the benchmark catalog actually measured. The
// paper's §4 gives probabilistic guarantees in closed form only for
// idealized samplers; the reproduction instead measures where each
// protocol family's slice disorder settles (the finalSDM column of a
// `slicebench sweep`) and uses that floor — inflated while a node is
// still warming up — as the residual term of every reported bound.
type Calibration struct {
	// ResidualSDM is the slice-disorder floor the protocol family
	// reaches at convergence in the benchmark catalog. A fully warmed-up
	// node still cannot promise better than this.
	ResidualSDM float64
	// ConvergedTicks is the gossip-period count after which the
	// catalog's runs reach the floor; a node with fewer ticks reports a
	// proportionally inflated residual.
	ConvergedTicks int
}

// DefaultZ is the z-score of the reported Wald interval: a two-sided
// 95% confidence interval.
const DefaultZ = 1.96

// DefaultWarmupTicks is the grace period for fresh joiners: a node that
// has completed fewer periods answers with Staleness.Warming set,
// telling clients "too young to judge" instead of handing them a
// vacuous near-1 bound.
const DefaultWarmupTicks = 5

// DefaultStarvationTicks is the partition detector's patience: a node
// whose passive thread has received nothing for this many consecutive
// ticks is presumed cut off (black-holed links starve the rank sampler)
// and answers with Staleness.Degraded set and an inflated bound.
const DefaultStarvationTicks = 8

// Default calibrations, derived from the convergence data of a
// `slicebench sweep` over the scenario catalog: ranking runs
// settle around finalSDM ≈ 0.002–0.01 of normalized rank error within
// ~150 cycles at n=10k (fig6 families), ordering runs floor roughly an
// order of magnitude higher because the slice assignment inherits the
// unevenness of the initial random draw (fig4-disorder).
var (
	// RankingCalibration is the default for ranking-protocol nodes.
	RankingCalibration = Calibration{ResidualSDM: 0.01, ConvergedTicks: 150}
	// OrderingCalibration is the default for ordering-protocol nodes.
	OrderingCalibration = Calibration{ResidualSDM: 0.1, ConvergedTicks: 100}
)

// staleness computes the error bound for an answer derived from a node
// with the given convergence state:
//
//   - ticks: completed gossip periods (the node's convergence clock)
//   - samples: rank-estimator observations (0 for ordering nodes)
//   - points: interpolation anchors the answer used
//   - rank: the answer's estimated normalized rank
//   - boundaryDist: the rank's distance to the nearest slice boundary
//
// The evidence count k is the estimator fill when present, else the
// tick count (an ordering node incorporates roughly one exchange of
// evidence per period). The reported Bound is the max of the Wald
// interval half-width at DefaultZ (the sampling error of the rank
// estimate) and the calibrated residual floor (the systematic error
// convergence never removes), the floor scaled up by
// ConvergedTicks/ticks while the node is younger than the calibration's
// convergence horizon.
func (c Calibration) staleness(ticks, samples, points int, rank, boundaryDist float64) Staleness {
	st := Staleness{Ticks: ticks, Samples: samples, Points: points}
	k := samples
	if k <= 0 {
		k = ticks
	}
	variance := rank * (1 - rank)
	switch {
	case k <= 0:
		st.RankCI = 1
	case variance == 0:
		st.RankCI = 0
	default:
		st.RankCI = DefaultZ * math.Sqrt(variance/float64(k))
	}
	st.ResidualSDM = c.ResidualSDM
	if c.ConvergedTicks > 0 && ticks < c.ConvergedTicks {
		if ticks <= 0 {
			st.ResidualSDM = 1
		} else {
			st.ResidualSDM = c.ResidualSDM * float64(c.ConvergedTicks) / float64(ticks)
		}
	}
	st.Bound = math.Min(1, math.Max(st.RankCI, st.ResidualSDM))
	if boundaryDist > 0 && k > 0 {
		if conf, err := stats.SliceConfidence(k, rank, boundaryDist); err == nil {
			st.Confidence = conf
		}
	}
	// Below the warmup grace the residual inflation saturates toward a
	// vacuous bound of 1; Warming tells the client the node is merely
	// young, not wrong — wait, or ask another node.
	if ticks < DefaultWarmupTicks {
		st.Warming = true
	}
	return st
}

// starve applies the partition detector to a computed staleness block:
// recvGap is the number of consecutive ticks the answering node's
// passive thread has gone without receiving a message. A warmed-up node
// starved past DefaultStarvationTicks is flagged Degraded and its
// bound inflates with the gap: every piece of evidence behind the answer
// — samples, ticks, the view itself — predates the moment the node was
// cut off, so the whole estimate is frozen and its error grows the
// longer the starvation lasts. Warming takes precedence: a fresh joiner
// has not earned a degraded verdict.
func (c Calibration) starve(st Staleness, recvGap int) Staleness {
	if st.Warming || recvGap < DefaultStarvationTicks {
		return st
	}
	factor := float64(recvGap) / DefaultStarvationTicks
	st.Degraded = true
	st.ResidualSDM = math.Min(1, st.ResidualSDM*factor)
	st.Bound = math.Min(1, st.Bound*factor)
	return st
}
