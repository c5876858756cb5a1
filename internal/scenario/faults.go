package scenario

import "github.com/gossipkit/slicing/internal/fault"

// A spec's faults block is a fault.Plan, its own JSON form: each family
// is optional, and its window is the half-open cycle interval
// [from, until), where until 0 never closes. The same plan drives both
// backends: attribute faults through one fault.Applier, partitions and
// message chaos through each engine's own network.

// scaleWindow shrinks a cycle window by ratio, keeping at least one open
// cycle.
func scaleWindow(w *fault.Window, ratio float64) {
	w.From = int(float64(w.From) * ratio)
	if w.To <= 0 {
		return
	}
	w.To = max(scaledInt(w.To, ratio, 1), w.From+1)
}

// scaledPlan deep-copies p with every cycle quantity shrunk by the run's
// effective cycle ratio, so windows keep their position within the
// shortened run instead of sliding off its end.
func scaledPlan(p *fault.Plan, ratio float64) *fault.Plan {
	c := clonePlan(p)
	if d := c.Drift; d != nil {
		scaleWindow(&d.Window, ratio)
		if d.Period > 0 {
			d.Period = scaledInt(d.Period, ratio, 2)
		}
		if d.Every > 1 {
			d.Every = scaledInt(d.Every, ratio, 1)
		}
	}
	if b := c.Byzantine; b != nil {
		scaleWindow(&b.Window, ratio)
	}
	if pt := c.Partition; pt != nil {
		scaleWindow(&pt.Window, ratio)
	}
	for i := range c.Chaos {
		scaleWindow(&c.Chaos[i].Window, ratio)
	}
	return c
}

// clonePlan deep-copies p.
func clonePlan(p *fault.Plan) *fault.Plan {
	if p == nil {
		return nil
	}
	c := *p
	if p.Drift != nil {
		d := *p.Drift
		c.Drift = &d
	}
	if p.Byzantine != nil {
		b := *p.Byzantine
		if b.TargetSlice != nil {
			t := *b.TargetSlice
			b.TargetSlice = &t
		}
		c.Byzantine = &b
	}
	if p.Partition != nil {
		pt := *p.Partition
		c.Partition = &pt
	}
	c.Chaos = append([]fault.Chaos(nil), p.Chaos...)
	return &c
}
