// Live cluster over TCP: the "livecluster" catalog scenario — sixteen
// slicing nodes converging to a 4-slice partition — lifted out of the
// simulator and onto real sockets. Each node gets its own TCP listener
// on loopback and is bootstrapped only with peer addresses (no attribute
// knowledge): the full production wiring of cmd/slicenode, in one
// process. The population, partition and view size come from the
// registry spec; only the transport wiring is this program's own.
//
//	go run ./examples/livecluster
package main

import (
	"fmt"
	"log"
	"time"

	slicing "github.com/gossipkit/slicing"
)

func main() {
	sc, err := slicing.LookupScenario("livecluster")
	if err != nil {
		log.Fatal(err)
	}
	spec := sc.Specs[0]
	nodes := spec.N
	part, err := slicing.EqualSlices(spec.Slices)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario %q: %s\n", sc.Name, sc.Description)

	// One transport (listener) per node, as in a real deployment.
	transports := make([]*slicing.TCPTransport, nodes)
	for i := range transports {
		tr, err := slicing.NewTCPTransport(slicing.TCPTransportOptions{ListenAddr: "127.0.0.1:0"})
		if err != nil {
			log.Fatal(err)
		}
		transports[i] = tr
		defer tr.Close()
	}
	for i, tr := range transports {
		for j, other := range transports {
			if i != j {
				tr.SetPeer(slicing.ID(j+1), other.Addr())
			}
		}
	}

	// Each node knows only two contact addresses at boot.
	live := make([]*slicing.Node, nodes)
	for i := range live {
		bootstrap := []slicing.ViewEntry{
			{ID: slicing.ID((i+1)%nodes + 1), Age: slicing.AgePlaceholder},
			{ID: slicing.ID((i+5)%nodes + 1), Age: slicing.AgePlaceholder},
		}
		node, err := slicing.NewNode(slicing.NodeConfig{
			ID:         slicing.ID(i + 1),
			Attr:       slicing.Attr((i%8)*100 + i), // a skewed, tie-heavy metric
			Partition:  part,
			ViewSize:   spec.ViewSize,
			Protocol:   slicing.Ranking,
			Estimator:  slicing.NewCounterEstimator(),
			Period:     5 * time.Millisecond,
			JitterFrac: 0.2,
			Seed:       int64(i + 1),
			Bootstrap:  bootstrap,
			Transport:  transports[i],
		})
		if err != nil {
			log.Fatal(err)
		}
		live[i] = node
	}
	fmt.Printf("starting %d TCP nodes on loopback…\n", nodes)
	for _, n := range live {
		if err := n.Start(); err != nil {
			log.Fatal(err)
		}
		defer n.Stop()
	}

	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(250 * time.Millisecond)
		settled := true
		for _, n := range live {
			if n.Status().Samples < 200 {
				settled = false
				break
			}
		}
		if settled {
			break
		}
	}

	fmt.Println("\nid   attr  rank-est  slice            view  samples")
	for _, n := range live {
		st := n.Status()
		fmt.Printf("%-4v %-5g %-9.3f %-16v %-5d %d\n",
			st.ID, float64(st.Attr), st.R, st.Slice, st.ViewLen, st.Samples)
	}
}
