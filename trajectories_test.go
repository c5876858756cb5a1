package slicing

// The golden trajectory test: "same seed, same result" against
// yesterday, not only against itself. Every registry family except the
// scale-* runs executes on the simulator at scale 0.02, and each spec
// leaves one line in testdata/trajectories.golden: an FNV-1a over its
// recorded series (float bits), message and fault tallies, ordering
// event counters and final per-node states, plus its final SDM in
// decimal. A change meant to leave the computation alone leaves this
// file alone; a declared trajectory change shows as its diff, blessed
// with
//
//	go test -run TestTrajectories -update

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"github.com/gossipkit/slicing/internal/metrics"
	"github.com/gossipkit/slicing/internal/scenario"
	"github.com/gossipkit/slicing/internal/sim"
)

const trajectoriesGolden = "testdata/trajectories.golden"

func TestTrajectories(t *testing.T) {
	var b strings.Builder
	for _, sc := range scenario.All() {
		if strings.HasPrefix(sc.Name, "scale-") {
			continue
		}
		for _, spec := range sc.Specs {
			sum, sdm, err := trajectory(spec.Scaled(0.02))
			if err != nil {
				t.Fatalf("%s/%s: %v", sc.Name, spec.Name, err)
			}
			fmt.Fprintf(&b, "%s/%s %016x %v\n", sc.Name, spec.Name, sum, sdm)
		}
	}
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(trajectoriesGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(trajectoriesGolden)
	if err != nil {
		t.Fatalf("read %s: %v (bless with -update)", trajectoriesGolden, err)
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got, "\n")
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Errorf("trajectory line %d moved:\n  want %q\n  got  %q", i+1, w, g)
		}
	}
}

// trajectory runs one spec on the simulator and fingerprints everything
// it computed.
func trajectory(spec scenario.Spec) (uint64, float64, error) {
	cfg, err := spec.Config()
	if err != nil {
		return 0, 0, err
	}
	e, err := sim.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	e.Run(spec.Cycles)
	res := e.Result()
	h := fnv.New64a()
	for _, s := range []metrics.Series{res.SDM, res.GDM, res.UnsuccessfulPct, res.Size, res.Pollution} {
		fmt.Fprintf(h, "%s:%d;", s.Name, len(s.Points))
		for _, p := range s.Points {
			writeWords(h, uint64(p.Cycle), math.Float64bits(p.Value))
		}
	}
	fmt.Fprintf(h, "%+v;%+v;%+v;%d;", res.Messages, res.Faults, e.OrderingStats(), res.FinalN)
	for _, st := range e.States() {
		writeWords(h, uint64(st.Member.ID), math.Float64bits(float64(st.Member.Attr)),
			math.Float64bits(st.R), uint64(st.SliceIndex))
	}
	last, _ := res.SDM.Last()
	return h.Sum64(), last.Value, nil
}

func writeWords(h hash.Hash64, words ...uint64) {
	var buf [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(buf[:], w)
		h.Write(buf[:])
	}
}
