// Resource allocation: the paper's motivating scenario, taken from the
// "superpeers" catalog entry. A platform of heterogeneous peers
// (Pareto-distributed bandwidth, as measurement studies report) must
// self-organize so that the top 10% by bandwidth form a "super-peer"
// slice an application can be deployed on. The workload — population,
// partition, bandwidth law, seed — is the registry spec; this program
// lifts it from the cycle simulator into a LIVE cluster (every node
// multiplexed onto the cluster's sharded scheduler, gossiping over its
// internal network), then audits the top slice's composition against
// ground truth.
//
//	go run ./examples/resourceallocation
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	slicing "github.com/gossipkit/slicing"
)

func main() {
	sc, err := slicing.LookupScenario("superpeers")
	if err != nil {
		log.Fatal(err)
	}
	spec := sc.Specs[0]
	nodes := spec.N

	// The registry spec describes a cycle-model run; reuse its partition
	// and attribute law for the live cluster.
	if len(spec.SliceBounds) != 1 {
		log.Fatalf("superpeers spec has %d custom bounds, want the single super-peer boundary", len(spec.SliceBounds))
	}
	bound := spec.SliceBounds[0]
	part, err := slicing.CustomSlices(bound)
	if err != nil {
		log.Fatal(err)
	}
	bw, err := spec.Attr.Source()
	if err != nil {
		log.Fatal(err)
	}
	cluster, err := slicing.NewCluster(slicing.ClusterConfig{
		N:         nodes,
		Partition: part,
		ViewSize:  spec.ViewSize,
		Protocol:  slicing.Ranking,
		Period:    3 * time.Millisecond, // aggressive for a demo; LAN default is 500ms
		AttrDist:  bw,
		Seed:      spec.Seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()

	fmt.Printf("scenario %q: %s\n", sc.Name, sc.Description)
	fmt.Printf("launching %d live nodes (Pareto bandwidth, top-10%% super-peer slice)\n", nodes)
	// The analytic quantile gives the closed-form admission threshold the
	// population approximates: asymptotically, super-peers are exactly
	// the nodes with bandwidth above the law's 90th percentile.
	fmt.Printf("analytic super-peer threshold: bandwidth ≥ %.1f (%v quantile at %g)\n",
		bw.Quantile(bound), bw, bound)
	if err := cluster.Start(); err != nil {
		log.Fatal(err)
	}

	// Let the gossip run until assignments are substantially correct.
	start := time.Now()
	sdm, ok := cluster.AwaitSDM(float64(nodes)/50, 30*time.Second)
	fmt.Printf("converged=%v in %v (SDM %.1f)\n\n", ok, time.Since(start).Round(time.Millisecond), sdm)

	// Audit: which nodes claim the super-peer slice, and how does that
	// compare with the true top decile?
	states := cluster.States()
	sort.Slice(states, func(i, j int) bool { return states[i].Member.Attr > states[j].Member.Attr })
	trueTop := make(map[slicing.ID]bool, nodes/10)
	for _, st := range states[:nodes/10] {
		trueTop[st.Member.ID] = true
	}
	var claimed, correct int
	for _, st := range states {
		if st.SliceIndex == 1 { // the (0.9, 1] slice
			claimed++
			if trueTop[st.Member.ID] {
				correct++
			}
		}
	}
	fmt.Printf("super-peer slice: %d nodes claim it (true size %d)\n", claimed, nodes/10)
	if claimed > 0 {
		fmt.Printf("precision: %d/%d = %.0f%%\n", correct, claimed, 100*float64(correct)/float64(claimed))
	}
	fmt.Println("\nhighest-bandwidth nodes and their own slice decision:")
	for _, st := range states[:5] {
		fmt.Printf("  node %-5v bandwidth=%-9.1f claims slice %v\n",
			st.Member.ID, float64(st.Member.Attr), part.Slice(st.SliceIndex))
	}
}
