package sim

import "testing"

// TestKernelEquivalence is the fast-path compatibility contract: every
// fused protocol kernel (single-pass view merge with the fused trim
// histogram and branch-free compaction, the packed-key partial-scan
// mod-JK rank count with its exact-count fallback, bulk bootstrap,
// fused measurement) must produce BIT-IDENTICAL results to the
// straightforward reference implementations forced by
// Config.ReferenceKernels. The matrix reuses the worker-invariance
// configs — both protocols, every membership substrate, churn and the
// full fault plane — and checks the fast engine at several worker
// counts against the serial reference engine, so a fast kernel that
// drifted only under parallel execution is caught here too.
func TestKernelEquivalence(t *testing.T) {
	const cycles = 40
	for name, cfg := range invarianceConfigs() {
		t.Run(name, func(t *testing.T) {
			cfg.Workers = 1
			cfg.ReferenceKernels = true
			ref, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref.Run(cycles)
			want := fingerprint(ref)
			cfg.ReferenceKernels = false
			for _, workers := range []int{1, 3} {
				cfg.Workers = workers
				e, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				e.Run(cycles)
				got := fingerprint(e)
				if got.sdm != want.sdm {
					t.Fatalf("workers=%d: fast SDM series diverges from reference\n got %.120s...\nwant %.120s...",
						workers, got.sdm, want.sdm)
				}
				if got.gdm != want.gdm {
					t.Fatalf("workers=%d: fast GDM series diverges from reference", workers)
				}
				if got.unsucc != want.unsucc {
					t.Fatalf("workers=%d: fast unsuccessful%% series diverges from reference", workers)
				}
				if got.size != want.size {
					t.Fatalf("workers=%d: fast size series diverges from reference", workers)
				}
				if got.messages != want.messages {
					t.Fatalf("workers=%d: fast message counts diverge: %+v vs %+v",
						workers, got.messages, want.messages)
				}
				if got.faults != want.faults {
					t.Fatalf("workers=%d: fast fault tallies diverge: %+v vs %+v",
						workers, got.faults, want.faults)
				}
				if got.ordering != want.ordering {
					t.Fatalf("workers=%d: fast ordering stats diverge: %+v vs %+v",
						workers, got.ordering, want.ordering)
				}
				if got.finalN != want.finalN || got.states != want.states {
					t.Fatalf("workers=%d: fast final membership diverges from reference", workers)
				}
			}
		})
	}
}
