package serving

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

// FuzzServerQuery feeds arbitrary strings to the query plane's two
// numeric parameters, /slice?attr= and /topk?frac=, through the route
// table. Every request must end in a 400 or in a 200 whose body decodes
// to an answer with finite fields, a rank and a bound in [0,1] and a
// slice the partition has — never a 5xx, a panic, or a 200 whose JSON
// encoding failed halfway.
func FuzzServerQuery(f *testing.F) {
	for _, s := range []string{"NaN", "+Inf", "-Inf", "", "1e308", "-1e308", "-5", "1e-320", "abc", "0.25", "50"} {
		f.Add(s)
	}
	e := testEngine(f, 200, 30)
	q := NewSimQuerier(e, Calibration{})
	h := NewServer(q, Options{}).Handler()
	slices := q.part.Len()
	get := func(t *testing.T, path, param, raw string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path+"?"+url.Values{param: {raw}}.Encode(), nil))
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("%s %s=%q: status %d, want 200 or 400: %s", path, param, raw, rec.Code, rec.Body)
		}
		return rec
	}
	f.Fuzz(func(t *testing.T, raw string) {
		if rec := get(t, "/slice", "attr", raw); rec.Code == http.StatusOK {
			var ans SliceAnswer
			if err := json.Unmarshal(rec.Body.Bytes(), &ans); err != nil {
				t.Fatalf("/slice attr=%q: body does not decode: %v: %s", raw, err, rec.Body)
			}
			if !finite(ans.Attr) || !unit(ans.Rank) || !unit(ans.Low) || !unit(ans.High) ||
				ans.SliceIx < 0 || ans.SliceIx >= slices {
				t.Fatalf("/slice attr=%q: answer out of range: %+v", raw, ans)
			}
			checkStaleness(t, raw, ans.Staleness)
		}
		if rec := get(t, "/topk", "frac", raw); rec.Code == http.StatusOK {
			var ans TopKAnswer
			if err := json.Unmarshal(rec.Body.Bytes(), &ans); err != nil {
				t.Fatalf("/topk frac=%q: body does not decode: %v: %s", raw, err, rec.Body)
			}
			if !unit(ans.Frac) || ans.Frac == 0 || !finite(ans.AttrThreshold) {
				t.Fatalf("/topk frac=%q: answer out of range: %+v", raw, ans)
			}
			for _, m := range ans.Members {
				if !finite(m.Attr) || !unit(m.Rank) {
					t.Fatalf("/topk frac=%q: member out of range: %+v", raw, m)
				}
			}
			checkStaleness(t, raw, ans.Staleness)
		}
	})
}

func checkStaleness(t *testing.T, raw string, st Staleness) {
	t.Helper()
	if !finite(st.RankCI) || !finite(st.Confidence) || !finite(st.ResidualSDM) || !unit(st.Bound) {
		t.Fatalf("%q: staleness out of range: %+v", raw, st)
	}
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func unit(x float64) bool { return x >= 0 && x <= 1 }
