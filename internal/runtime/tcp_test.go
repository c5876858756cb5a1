package runtime

import (
	"fmt"
	"testing"
	"time"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/metrics"
	"github.com/gossipkit/slicing/internal/proto"
	"github.com/gossipkit/slicing/internal/ranking"
	"github.com/gossipkit/slicing/internal/transport/tcp"
	"github.com/gossipkit/slicing/internal/view"
)

// A full end-to-end cluster over real TCP sockets with identity-only
// bootstrap, exactly how cmd/slicenode wires nodes together: every node
// has its own listener and learns everything else through gossip.
func TestTCPClusterEndToEnd(t *testing.T) {
	const n = 8
	part := testPartition(t, 2)
	attrs := make([]core.Attr, n)
	for i := range attrs {
		attrs[i] = core.Attr((i + 1) * 10)
	}

	transports := make([]*tcp.Transport, n)
	for i := range transports {
		tr, err := tcp.New(tcp.Options{ListenAddr: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		transports[i] = tr
		defer tr.Close()
	}
	// Everyone knows everyone's address (the operator's address book)…
	for i, tr := range transports {
		for j, other := range transports {
			if i != j {
				tr.SetPeer(core.ID(j+1), other.Addr())
			}
		}
	}
	// …but views start as identity-only placeholders of two neighbors.
	nodes := make([]*Node, n)
	for i := range nodes {
		bootstrap := []view.Entry{
			{ID: core.ID((i+1)%n + 1), Age: view.AgeUnknown},
			{ID: core.ID((i+2)%n + 1), Age: view.AgeUnknown},
		}
		node, err := NewNode(NodeConfig{
			ID: core.ID(i + 1), Attr: attrs[i], Partition: part,
			ViewSize: 5, Protocol: proto.Ranking,
			Estimator: ranking.NewCounter(),
			Period:    3 * time.Millisecond, JitterFrac: 0.2,
			Seed: int64(i + 1), Bootstrap: bootstrap,
			Transport: transports[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	for _, node := range nodes {
		if err := node.Start(); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, node := range nodes {
			node.Stop()
		}
	}()

	states := func() []metrics.NodeState {
		out := make([]metrics.NodeState, n)
		for i, node := range nodes {
			st := node.Status()
			out[i] = metrics.NodeState{
				Member:     core.Member{ID: st.ID, Attr: st.Attr},
				R:          st.R,
				SliceIndex: st.SliceIx,
			}
		}
		return out
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		if frac := metrics.MisassignedFraction(states(), part); frac == 0 {
			break
		}
		if time.Now().After(deadline) {
			var desc string
			for _, st := range states() {
				desc += fmt.Sprintf("%v:attr=%v r=%.3f slice=%d ", st.Member.ID, st.Member.Attr, st.R, st.SliceIndex)
			}
			t.Fatalf("TCP cluster did not fully converge: %s", desc)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
