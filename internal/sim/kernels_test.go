package sim

import "testing"

// TestKernelEquivalence is the engine-level half of the fast-kernel
// contract. The engine runs only the fused kernels, and each is pinned
// bit for bit against its reference by a property test in its own
// package: TickSwapFast and TickTable against TickSwap (ordering),
// TickTargetsFast against TickTargets (ranking), AgeAllOldest against
// AgeAll+Oldest and Reset against Clear+Add (view), and MergeCompact
// and MergeReply against MergeUsing (FuzzCyclonMerge and
// FuzzCyclonExchange, membership). What the engine adds on top are the dense mirrors
// the kernels and the measurement read instead of the protocol nodes —
// rs, attrs, the slice-index cache, the swap-counter totals and the
// departed IDs' NaN pins in the coordinate table. This test checks
// every one of them against the node state it stands for after every
// cycle, over the worker-invariance matrix (both protocols, every
// membership substrate, churn and the full fault plane) at one and at
// three workers, so a mirror that drifted only under parallel
// execution is caught too.
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
