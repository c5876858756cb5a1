package sim

import "testing"

// TestKernelEquivalence is the engine-level half of the fast-kernel
// contract. The engine runs only the fused kernels, and each is pinned
// bit for bit against its reference by a property test in its own
// package: TickSwapFast and TickTable against TickSwap (ordering),
// TickTargetsFast against TickTargets (ranking), AgeAllOldest against
// AgeAll+Oldest and Reset against Clear+Add (view), and MergeCompact
// and MergeReply against MergeUsing (FuzzCyclonMerge and
// FuzzCyclonExchange, membership). What the engine adds on top is its
// column layout — the kernels run on a node's facts gathered from the
// per-slot columns — and the state it derives from them: the staged
// slice of the last measurement, the swap-counter totals and the
// departed IDs' NaN pins in the coordinate table. This test checks the
// columns' lockstep and every derived value against the columns after
// every cycle, over the worker-invariance matrix (both protocols, every
// membership substrate, churn and the full fault plane) at one and at
// three workers, so a value that drifted only under parallel execution
// is caught too.
func TestKernelEquivalence(t *testing.T) {
	const cycles = 40
	for name, cfg := range invarianceConfigs() {
		t.Run(name, func(t *testing.T) {
			for _, workers := range []int{1, 3} {
				cfg.Workers = workers
				e, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkArenaConsistency(t, e)
				for c := 0; c < cycles; c++ {
					e.Step()
					checkArenaConsistency(t, e)
				}
			}
		})
	}
}
