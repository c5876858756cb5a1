// Package tcp implements the Transport interface over TCP sockets with
// the binary codec of package codec. Each frame on the wire is:
//
//	uint32  frame length (big-endian, excluding itself)
//	uint64  sender id
//	uint64  destination id
//	bytes   codec frame (version, type, payload)
//
// One Transport serves any number of local nodes behind a single
// listener; an address book maps remote node ids to "host:port"
// endpoints. Outbound connections are cached per address and re-dialed
// on failure. Gossip tolerates loss, so Send drops rather than retries.
package tcp

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/proto"
	"github.com/gossipkit/slicing/internal/transport"
	"github.com/gossipkit/slicing/internal/transport/codec"
)

// MaxFrame bounds accepted frame sizes (a full view exchange of 65535
// entries is ~1.8 MB; anything bigger is malformed or hostile).
const MaxFrame = 4 << 20

// Options configures a TCP transport.
type Options struct {
	// ListenAddr is the local endpoint, e.g. "127.0.0.1:7001". Required.
	ListenAddr string
	// Book maps remote node ids to their endpoints. Local ids need no
	// entry: they dispatch in-process.
	Book map[core.ID]string
	// DialTimeout bounds connection establishment. Default 2s.
	DialTimeout time.Duration
	// WriteTimeout bounds a single frame write. Default 2s.
	WriteTimeout time.Duration
}

// Transport is a TCP-backed transport.
type Transport struct {
	opts Options
	ln   net.Listener

	mu       sync.Mutex
	handlers map[core.ID]transport.Handler
	conns    map[string]*outConn
	inbound  map[net.Conn]struct{}
	book     map[core.ID]string
	closed   bool

	wg sync.WaitGroup
}

var _ transport.Transport = (*Transport)(nil)

type outConn struct {
	mu   sync.Mutex
	conn net.Conn
}

// New starts listening and returns the transport.
func New(opts Options) (*Transport, error) {
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 2 * time.Second
	}
	if opts.WriteTimeout <= 0 {
		opts.WriteTimeout = 2 * time.Second
	}
	ln, err := net.Listen("tcp", opts.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("tcp: listen %s: %w", opts.ListenAddr, err)
	}
	book := make(map[core.ID]string, len(opts.Book))
	for id, addr := range opts.Book {
		book[id] = addr
	}
	t := &Transport{
		opts:     opts,
		ln:       ln,
		handlers: make(map[core.ID]transport.Handler),
		conns:    make(map[string]*outConn),
		inbound:  make(map[net.Conn]struct{}),
		book:     book,
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the bound listen address (useful with ":0").
func (t *Transport) Addr() string { return t.ln.Addr().String() }

// SetPeer adds or updates an address book entry.
func (t *Transport) SetPeer(id core.ID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.book[id] = addr
}

// Register implements transport.Transport.
func (t *Transport) Register(id core.ID, h transport.Handler) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return transport.ErrClosed
	}
	if _, ok := t.handlers[id]; ok {
		return transport.ErrDuplicateNode
	}
	t.handlers[id] = h
	return nil
}

// Unregister implements transport.Transport.
func (t *Transport) Unregister(id core.ID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.handlers, id)
}

// Send implements transport.Transport.
func (t *Transport) Send(from, to core.ID, msg proto.Message) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return transport.ErrClosed
	}
	if h, ok := t.handlers[to]; ok {
		// Local destination: dispatch asynchronously in-process so local
		// and remote sends have the same (non-blocking) semantics.
		t.wg.Add(1)
		t.mu.Unlock()
		go func() {
			defer t.wg.Done()
			h(from, msg)
		}()
		return nil
	}
	addr, ok := t.book[to]
	t.mu.Unlock()
	if !ok {
		return transport.ErrUnknownDestination
	}
	frame, err := encodeFrame(from, to, msg)
	if err != nil {
		return err
	}
	return t.write(addr, frame)
}

func encodeFrame(from, to core.ID, msg proto.Message) ([]byte, error) {
	body, err := codec.Marshal(msg)
	if err != nil {
		return nil, err
	}
	frame := make([]byte, 4+16+len(body))
	binary.BigEndian.PutUint32(frame, uint32(16+len(body)))
	binary.BigEndian.PutUint64(frame[4:], uint64(from))
	binary.BigEndian.PutUint64(frame[12:], uint64(to))
	copy(frame[20:], body)
	return frame, nil
}

// decodeFrame is encodeFrame's inverse over a frame's payload (the bytes
// after the length prefix). A from or to past core.MaxID is an error,
// like an undecodable message: truncating it would deliver the frame to,
// or attribute it to, another node.
func decodeFrame(payload []byte) (from, to core.ID, msg proto.Message, err error) {
	if from, err = core.IDOf(binary.BigEndian.Uint64(payload)); err != nil {
		return 0, 0, nil, fmt.Errorf("tcp: frame sender: %w", err)
	}
	if to, err = core.IDOf(binary.BigEndian.Uint64(payload[8:])); err != nil {
		return 0, 0, nil, fmt.Errorf("tcp: frame receiver: %w", err)
	}
	msg, err = codec.Unmarshal(payload[16:])
	return from, to, msg, err
}

// write sends a frame over the cached connection for addr, dialing if
// needed. A failed write invalidates the cache; the frame is dropped
// (gossip retries by design at the next period).
func (t *Transport) write(addr string, frame []byte) error {
	oc, err := t.conn(addr)
	if err != nil {
		return err
	}
	oc.mu.Lock()
	defer oc.mu.Unlock()
	if err := oc.conn.SetWriteDeadline(time.Now().Add(t.opts.WriteTimeout)); err != nil {
		t.dropConn(addr, oc)
		return err
	}
	if _, err := oc.conn.Write(frame); err != nil {
		t.dropConn(addr, oc)
		return err
	}
	return nil
}

func (t *Transport) conn(addr string) (*outConn, error) {
	t.mu.Lock()
	if oc, ok := t.conns[addr]; ok {
		t.mu.Unlock()
		return oc, nil
	}
	t.mu.Unlock()
	c, err := net.DialTimeout("tcp", addr, t.opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("tcp: dial %s: %w", addr, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		c.Close()
		return nil, transport.ErrClosed
	}
	if oc, ok := t.conns[addr]; ok {
		c.Close() // lost the dial race; reuse the winner
		return oc, nil
	}
	oc := &outConn{conn: c}
	t.conns[addr] = oc
	return oc, nil
}

func (t *Transport) dropConn(addr string, oc *outConn) {
	oc.conn.Close()
	t.mu.Lock()
	if cur, ok := t.conns[addr]; ok && cur == oc {
		delete(t.conns, addr)
	}
	t.mu.Unlock()
}

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			c.Close()
			return
		}
		t.inbound[c] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(c)
	}
}

func (t *Transport) readLoop(c net.Conn) {
	defer t.wg.Done()
	defer func() {
		c.Close()
		t.mu.Lock()
		delete(t.inbound, c)
		t.mu.Unlock()
	}()
	header := make([]byte, 4)
	for {
		if _, err := io.ReadFull(c, header); err != nil {
			return
		}
		size := binary.BigEndian.Uint32(header)
		if size < 16 || size > MaxFrame {
			return // malformed stream: cut the connection
		}
		payload := make([]byte, size)
		if _, err := io.ReadFull(c, payload); err != nil {
			return
		}
		from, to, msg, err := decodeFrame(payload)
		if err != nil {
			continue // skip undecodable frames, keep the stream
		}
		t.mu.Lock()
		h, ok := t.handlers[to]
		closed := t.closed
		t.mu.Unlock()
		if closed {
			return
		}
		if ok {
			h(from, msg)
		}
	}
}

// Close implements transport.Transport.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	for addr, oc := range t.conns {
		oc.conn.Close()
		delete(t.conns, addr)
	}
	for c := range t.inbound {
		c.Close()
	}
	t.mu.Unlock()
	err := t.ln.Close()
	t.wg.Wait()
	return err
}
