package scenario

import (
	"fmt"

	"github.com/gossipkit/slicing/internal/metrics"
	"github.com/gossipkit/slicing/internal/sim"
)

// Claim is one qualitative result of the paper stated as data:
// A Op Factor·B. Check evaluates a family's claims over one run of each
// of its specs, on either backend.
type Claim struct {
	A Stat `json:"a"`
	// Op is one of "<", "<=", ">", ">=".
	Op     string  `json:"op"`
	Factor float64 `json:"factor"`
	B      Stat    `json:"b"`
}

// Stat is one side of a claim: Agg ("first", "last" or "sum") over
// Series ("sdm", "gdm" or "unsuccessful%") of the run of spec Spec,
// plus Const. With Spec empty the side is Const alone.
type Stat struct {
	Spec   string  `json:"spec,omitempty"`
	Series string  `json:"series,omitempty"`
	Agg    string  `json:"agg,omitempty"`
	Const  float64 `json:"const,omitempty"`
}

// Verdict is the outcome of one claim. A and B are the evaluated sides,
// B before Factor. Err names a claim that could not be evaluated (an
// unknown spec, series, aggregate or operator, or an empty series);
// such a claim does not pass.
type Verdict struct {
	Claim Claim
	A, B  float64
	Pass  bool
	Err   error
}

// Check evaluates the family's claims over its runs, keyed by spec name.
func (sc Scenario) Check(runs map[string]*sim.Result) []Verdict {
	out := make([]Verdict, len(sc.Claims))
	for i, c := range sc.Claims {
		v := Verdict{Claim: c}
		v.A, v.Err = c.A.eval(runs)
		if v.Err == nil {
			v.B, v.Err = c.B.eval(runs)
		}
		if v.Err == nil {
			v.Pass, v.Err = holds(c.Op, v.A, c.Factor*v.B)
		}
		out[i] = v
	}
	return out
}

func (s Stat) eval(runs map[string]*sim.Result) (float64, error) {
	if s.Spec == "" {
		return s.Const, nil
	}
	res, ok := runs[s.Spec]
	if !ok {
		return 0, fmt.Errorf("no run of spec %q", s.Spec)
	}
	var pts []metrics.Point
	switch s.Series {
	case "sdm":
		pts = res.SDM.Points
	case "gdm":
		pts = res.GDM.Points
	case "unsuccessful%":
		pts = res.UnsuccessfulPct.Points
	default:
		return 0, fmt.Errorf("unknown series %q", s.Series)
	}
	if len(pts) == 0 {
		return 0, fmt.Errorf("%s.%s is empty", s.Spec, s.Series)
	}
	v := 0.0
	switch s.Agg {
	case "first":
		v = pts[0].Value
	case "last":
		v = pts[len(pts)-1].Value
	case "sum":
		for _, p := range pts {
			v += p.Value
		}
	default:
		return 0, fmt.Errorf("unknown aggregate %q", s.Agg)
	}
	return v + s.Const, nil
}

func holds(op string, a, b float64) (bool, error) {
	switch op {
	case "<":
		return a < b, nil
	case "<=":
		return a <= b, nil
	case ">":
		return a > b, nil
	case ">=":
		return a >= b, nil
	}
	return false, fmt.Errorf("unknown operator %q", op)
}

func (s Stat) String() string {
	if s.Spec == "" {
		return fmt.Sprint(s.Const)
	}
	str := fmt.Sprintf("%s(%s.%s)", s.Agg, s.Spec, s.Series)
	if s.Const != 0 {
		str = fmt.Sprintf("(%s%+g)", str, s.Const)
	}
	return str
}

func (c Claim) String() string {
	b := c.B.String()
	if c.Factor != 1 {
		b = fmt.Sprintf("%g·%s", c.Factor, b)
	}
	return c.A.String() + " " + c.Op + " " + b
}

// String renders the verdict as one PASS/FAIL line.
func (v Verdict) String() string {
	if v.Err != nil {
		return fmt.Sprintf("FAIL  %s: %v", v.Claim, v.Err)
	}
	status := "FAIL"
	if v.Pass {
		status = "PASS"
	}
	return fmt.Sprintf("%s  %s  (%.4g vs %.4g)", status, v.Claim, v.A, v.Claim.Factor*v.B)
}

// Claim-building shorthands for the registry.
func firstOf(spec, series string) Stat { return Stat{Spec: spec, Series: series, Agg: "first"} }
func lastOf(spec, series string) Stat  { return Stat{Spec: spec, Series: series, Agg: "last"} }
func sumOf(spec, series string) Stat   { return Stat{Spec: spec, Series: series, Agg: "sum"} }
func plusOne(s Stat) Stat              { s.Const++; return s }
func claim(a Stat, op string, factor float64, b Stat) Claim {
	return Claim{A: a, Op: op, Factor: factor, B: b}
}
