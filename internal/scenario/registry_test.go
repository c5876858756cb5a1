package scenario

import (
	"errors"
	"testing"
)

func TestRegistryNamesStable(t *testing.T) {
	names := Names()
	if len(names) == 0 {
		t.Fatal("empty registry")
	}
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			t.Errorf("duplicate scenario %q", name)
		}
		seen[name] = true
		if _, err := Lookup(name); err != nil {
			t.Errorf("Lookup(%q) failed: %v", name, err)
		}
	}
	for _, want := range []string{
		"fig4-disorder", "fig4-policies", "fig4-concurrency", "fig4-atomicity",
		"fig6-static", "fig6-sampler", "fig6-burst", "fig6-steady",
		"heavytail", "bimodal",
		"flash-crowd", "mass-departure", "slice-oscillation",
	} {
		if !seen[want] {
			t.Errorf("registry is missing %q", want)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("fig9-nothing"); !errors.Is(err, ErrUnknown) {
		t.Errorf("Lookup error = %v, want ErrUnknown", err)
	}
}

func TestAllReturnsCopy(t *testing.T) {
	all := All()
	all[0].Name = "clobbered"
	if registry[0].Name == "clobbered" {
		t.Error("All() aliases the registry backing array")
	}
}

// TestLookupReturnsDeepCopy guards the catalog against callers that
// mutate a looked-up spec (reseeding and rescaling are the normal
// workflow): no write may reach the package-global registry.
func TestLookupReturnsDeepCopy(t *testing.T) {
	sc, err := Lookup("fig6-burst")
	if err != nil {
		t.Fatal(err)
	}
	sc.Specs[0].N = 1
	sc.Specs[0].Churn.Phases[0].Join = 0.99
	again, err := Lookup("fig6-burst")
	if err != nil {
		t.Fatal(err)
	}
	if again.Specs[0].N == 1 {
		t.Error("Lookup aliases the registry's Specs slice")
	}
	if again.Specs[0].Churn.Phases[0].Join == 0.99 {
		t.Error("Lookup aliases the registry's churn phases")
	}
}

// TestEveryRegistrySpecValidates is the registry's structural gate:
// every spec of every scenario must validate at paper scale and at the
// CI smoke scale.
func TestEveryRegistrySpecValidates(t *testing.T) {
	for _, sc := range All() {
		if sc.Description == "" {
			t.Errorf("%s: missing description", sc.Name)
		}
		if len(sc.Specs) == 0 {
			t.Errorf("%s: no specs", sc.Name)
		}
		labels := map[string]bool{}
		for _, spec := range sc.Specs {
			if labels[spec.Name] {
				t.Errorf("%s: duplicate spec name %q", sc.Name, spec.Name)
			}
			labels[spec.Name] = true
			if _, err := spec.Config(); err != nil {
				t.Errorf("%s/%s: %v", sc.Name, spec.Name, err)
			}
			if _, err := spec.Scaled(0.01).Config(); err != nil {
				t.Errorf("%s/%s scaled: %v", sc.Name, spec.Name, err)
			}
		}
	}
}

// TestEveryRegistryScenarioSmokeRuns executes every registry scenario at
// a tiny scale: the acceptance gate that each figure family (and each
// extension) actually simulates end to end.
func TestEveryRegistryScenarioSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry smoke")
	}
	results, err := Runner{DisableTiming: true}.SweepGrid(Grid{Scale: 0.01, BaseSeed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	byScenario := map[string]int{}
	for _, res := range results {
		if res.Error != "" {
			t.Errorf("%s/%s: %s", res.Scenario, res.Spec.Name, res.Error)
			continue
		}
		byScenario[res.Scenario]++
		if res.FinalN <= 0 {
			t.Errorf("%s/%s: finalN = %d", res.Scenario, res.Spec.Name, res.FinalN)
		}
		if res.Messages.Total() == 0 && res.Spec.Membership != MemUniform {
			t.Errorf("%s/%s: no messages delivered", res.Scenario, res.Spec.Name)
		}
	}
	for _, name := range Names() {
		if byScenario[name] == 0 {
			t.Errorf("scenario %q produced no successful runs", name)
		}
	}
}
