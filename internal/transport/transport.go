// Package transport delivers protocol messages between live nodes. It
// defines the Transport interface a node sends through; the TCP
// transport (package tcp) implements it across processes, and a
// runtime.Cluster's scheduler implements it in-process, with its own
// latency, loss and fault injection.
//
// The paper's simulations exchange messages atomically inside cycles;
// the transports instead deliver asynchronously, exposing the protocols
// to genuine concurrency — the regime §4.5.2 approximates artificially.
package transport

import (
	"errors"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/proto"
)

// Transport errors.
var (
	// ErrClosed is returned by operations on a closed transport.
	ErrClosed = errors.New("transport: closed")
	// ErrUnknownDestination is returned when the destination is not
	// registered (the node is unreachable or has departed).
	ErrUnknownDestination = errors.New("transport: unknown destination")
	// ErrDuplicateNode is returned when a node id is registered twice.
	ErrDuplicateNode = errors.New("transport: node already registered")
)

// Handler consumes an incoming message on behalf of a local node.
// Handlers run on the transport's delivery goroutines; implementations
// synchronize their own state.
type Handler func(from core.ID, msg proto.Message)

// Transport routes protocol messages between nodes.
//
// A message changes hands when it is sent: the sender does not touch it
// again, and a delivered view payload (the entries of a
// proto.ViewRequest or proto.ViewReply) belongs to its receiver, which
// may write its reply into it or recycle its backing array. A transport
// that delivers one message twice gives each delivery its own copy of
// the entries.
type Transport interface {
	// Register binds a handler for a local node id.
	Register(id core.ID, h Handler) error
	// Unregister removes a local node; its queued messages are dropped.
	Unregister(id core.ID)
	// Send delivers a message asynchronously. A nil error means the
	// message was accepted, not that it will arrive: transports may
	// drop (loss injection, full queues, broken connections).
	Send(from, to core.ID, msg proto.Message) error
	// Close shuts down the transport. It does not wait for messages in
	// transit to arrive: one whose latency has not elapsed, or that is
	// still queued or unsent, may be dropped. The tcp transport returns
	// once its goroutines have finished, so none of its handlers runs
	// after Close.
	Close() error
}
