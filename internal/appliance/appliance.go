// Package appliance exposes a SieveStore core.Store over TCP as a
// transparent block-caching appliance — the deployment model of the paper
// (§3.3, Figure 4): servers issue block I/O to the appliance, which serves
// popular blocks from its cache and forwards the rest to the storage
// ensemble.
//
// The wire protocol is a minimal length-prefixed binary framing (the paper
// assumes iSCSI; any block protocol works, so we use the simplest one that
// exercises the same data path). Protocol v1 is strictly
// one-request-one-response:
//
//	request:  magic 'S' | op u8 | server u16 | volume u16 | offset u64 | length u32 | payload
//	response: status u8 | (status==0: payload) (status==1: msgLen u16 | message)
//
// Reads carry no request payload and return `length` bytes; writes carry
// `length` bytes and return an empty payload; OpStats returns a JSON
// encoding of core.Stats prefixed by a u32 length.
//
// Protocol v2 (negotiated per connection via OpHello; see wire2.go and
// DESIGN.md §11) adds a request tag so frames pipeline and complete out
// of order, plus OpReadV/OpWriteV scatter/gather ops. v1 peers
// interoperate unchanged: a server speaks v1 on every connection until
// that connection completes a HELLO, and a client falls back to v1 when
// the server rejects the HELLO.
//
// Both framings share one path per concern: one server connection loop
// and op executor (server.go), one client op helper, one body reader and
// one error-frame decoder. Only the header codec and the response prefix
// differ, plus these per-protocol rules: v1 is served at depth 1, inline;
// v1 checks the header ids on every op, v2 only on the ops whose header
// addresses blocks (Read, Write, Invalidate); the vector ops exist only in
// v2; and HELLO is an op only on a v1 connection. Reads in both are served
// zero-copy from pinned cache frames where the blocks are resident.
package appliance

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"repro/internal/core"
)

// Protocol constants.
const (
	magic = 0x53 // 'S'

	// OpRead reads length bytes.
	OpRead = 1
	// OpWrite writes the payload.
	OpWrite = 2
	// OpStats returns the appliance's core.Stats as JSON.
	OpStats = 3
	// OpRotate forces a SieveStore-D epoch rotation (no-op for VariantC).
	OpRotate = 4
	// OpInvalidate drops cached blocks in [offset, offset+length); the
	// response payload is the dropped count as a u32.
	OpInvalidate = 5

	statusOK  = 0
	statusErr = 1

	// MaxIOBytes bounds a single request's transfer size.
	MaxIOBytes = 16 << 20

	headerSize = 1 + 1 + 2 + 2 + 8 + 4

	// maxErrMsg bounds an error-frame message (u16 length prefix).
	maxErrMsg = 65535

	// connBufSize sizes the per-connection bufio read/write buffers: large
	// enough that a header + a 4 KiB page + the status byte coalesce into
	// one syscall each way, small enough to be cheap per connection.
	connBufSize = 32 << 10
)

// ErrProtocol reports a malformed frame.
var ErrProtocol = errors.New("appliance: protocol error")

// ErrBrokenConn reports a client connection abandoned after a transport
// error: the wire position is unknown (a frame may have been half sent or
// half read), so any further request would misparse stale bytes. Redial.
var ErrBrokenConn = errors.New("appliance: connection broken by earlier transport error")

// ErrAlreadyServing reports a second Serve call on the same Server.
var ErrAlreadyServing = errors.New("appliance: Serve already called")

// ErrServerBusy is sent (as an error frame) to connections arriving while
// the server is at its ServerOptions.MaxConns limit, and surfaced by the
// client when it recognizes the frame. The wording is part of the wire
// protocol: the client matches the message text to map the remote frame
// back to this sentinel.
var ErrServerBusy = errors.New("appliance: server at connection limit")

// header is the fixed-size request prefix.
type header struct {
	op     byte
	server uint16
	volume uint16
	offset uint64
	length uint32
}

func (h *header) encode(buf []byte) {
	buf[0] = magic
	buf[1] = h.op
	binary.BigEndian.PutUint16(buf[2:], h.server)
	binary.BigEndian.PutUint16(buf[4:], h.volume)
	binary.BigEndian.PutUint64(buf[6:], h.offset)
	binary.BigEndian.PutUint32(buf[14:], h.length)
}

func decodeHeader(buf []byte) (header, error) {
	if buf[0] != magic {
		return header{}, fmt.Errorf("%w: bad magic 0x%02x", ErrProtocol, buf[0])
	}
	h := header{
		op:     buf[1],
		server: binary.BigEndian.Uint16(buf[2:]),
		volume: binary.BigEndian.Uint16(buf[4:]),
		offset: binary.BigEndian.Uint64(buf[6:]),
		length: binary.BigEndian.Uint32(buf[14:]),
	}
	if h.length > MaxIOBytes {
		return header{}, fmt.Errorf("%w: length %d exceeds limit", ErrProtocol, h.length)
	}
	return h, nil
}

// ServerOptions hardens a Server against misbehaving peers and overload.
// The zero value imposes nothing (the historical behavior).
type ServerOptions struct {
	// IdleTimeout bounds how long a connection may sit between requests
	// before it is closed (0 = forever). A dead peer otherwise pins a
	// handler goroutine and a connection slot indefinitely.
	IdleTimeout time.Duration
	// IOTimeout bounds each request's remaining wire I/O — payload read,
	// store processing, and response flush — once its header has arrived
	// (0 = unbounded). Size it for the slowest expected backend op, not
	// just the wire.
	IOTimeout time.Duration
	// MaxConns caps concurrently served connections (0 = unlimited).
	// Connections beyond the cap receive an ErrServerBusy error frame and
	// are closed, so a well-behaved client fails fast instead of queueing.
	MaxConns int
	// MaxProtocol caps the protocol version the server negotiates.
	// 0 (or ProtocolV2) serves both; ProtocolV1 pins the legacy framing —
	// HELLO frames are then answered as unknown ops, exactly like a
	// pre-v2 server.
	MaxProtocol int
	// MaxPipeline caps how many pipelined requests one v2 connection may
	// have in flight server-side; past the cap the connection's reader
	// stops pulling frames until a response completes (0 = a default of
	// 32). v1 connections are inherently one-at-a-time.
	MaxPipeline int
}

// BlockStore is the storage surface a Server serves over the wire. A
// *core.Store is the canonical implementation; cluster.Client satisfies
// it too, so a Server can front a whole replicated ring as a gateway.
// ReadPinned may return nil to decline zero-copy service — the read
// then falls back to ReadAt.
type BlockStore interface {
	ReadAt(server, volume int, p []byte, off uint64) error
	WriteAt(server, volume int, p []byte, off uint64) error
	ReadVec(vecs []core.IOVec) error
	WriteVec(vecs []core.IOVec) error
	ReadPinned(server, volume, n int, off uint64) *core.PinnedRead
	Stats() core.Stats
	RotateEpoch() error
	Flush() error
	Invalidate(server, volume int, off uint64, length int) (int, error)
}

// Server serves the appliance protocol over a listener, backed by a
// BlockStore (usually a core.Store).
type Server struct {
	store BlockStore
	opts  ServerOptions

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]bool
	closed   bool
	wg       sync.WaitGroup

	busyRejects int64

	totalConns  atomic.Int64
	requests    atomic.Int64
	errorFrames atomic.Int64

	v2Conns       atomic.Int64
	pipelinedReqs atomic.Int64
	pipelineDepth atomic.Int64
	vecOps        atomic.Int64
	vecExtents    atomic.Int64
	zeroCopyBytes atomic.Int64
}

// NewServer returns a Server around st with no limits (ServerOptions zero
// value). The caller retains ownership of st (Close does not close the
// store).
func NewServer(st BlockStore) *Server {
	return NewServerWith(st, ServerOptions{})
}

// NewServerWith returns a Server around st hardened with opts.
func NewServerWith(st BlockStore, opts ServerOptions) *Server {
	return &Server{store: st, opts: opts, conns: make(map[net.Conn]bool)}
}

// BusyRejects returns how many connections were turned away at the
// MaxConns limit.
func (s *Server) BusyRejects() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.busyRejects
}

// ServerStats is a snapshot of a Server's connection and request
// counters, exported by the observability layer.
type ServerStats struct {
	ActiveConns   int   // connections currently being served
	TotalConns    int64 // connections accepted over the server's lifetime
	BusyRejects   int64 // connections turned away at the MaxConns limit
	Requests      int64 // request frames received (all ops)
	ErrorFrames   int64 // error-frame responses sent
	V2Conns       int64 // connections that negotiated protocol v2
	PipelinedReqs int64 // v2 requests that arrived while another was already in flight on the same connection
	PipelineDepth int64 // v2 requests in flight right now, across connections
	VecOps        int64 // OpReadV/OpWriteV frames served
	VecExtents    int64 // extents carried by those frames
	ZeroCopyBytes int64 // read bytes served straight from pinned cache frames
}

// StatsSnapshot snapshots the server's counters.
func (s *Server) StatsSnapshot() ServerStats {
	s.mu.Lock()
	active := len(s.conns)
	busy := s.busyRejects
	s.mu.Unlock()
	return ServerStats{
		ActiveConns:   active,
		TotalConns:    s.totalConns.Load(),
		BusyRejects:   busy,
		Requests:      s.requests.Load(),
		ErrorFrames:   s.errorFrames.Load(),
		V2Conns:       s.v2Conns.Load(),
		PipelinedReqs: s.pipelinedReqs.Load(),
		PipelineDepth: s.pipelineDepth.Load(),
		VecOps:        s.vecOps.Load(),
		VecExtents:    s.vecExtents.Load(),
		ZeroCopyBytes: s.zeroCopyBytes.Load(),
	}
}

// Serve accepts connections on l until Close is called. It always returns a
// non-nil error: net.ErrClosed after a clean shutdown, ErrAlreadyServing if
// the server already has a listener (a Server serves at most once).
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	if s.listener != nil {
		s.mu.Unlock()
		return ErrAlreadyServing
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			// After Close the accept error is an implementation detail of
			// the listener; normalize it so callers can test for shutdown.
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return net.ErrClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		if s.opts.MaxConns > 0 && len(s.conns) >= s.opts.MaxConns {
			s.busyRejects++
			s.wg.Add(1)
			s.mu.Unlock()
			// Tell the peer why before closing — off the accept loop, with a
			// short deadline, so one unresponsive peer cannot stall accepts.
			go func() {
				defer s.wg.Done()
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(time.Second))
				s.errorFrames.Add(1)
				conn.Write(append([]byte{statusErr}, errBody(ErrServerBusy)...))
				// Absorb whatever the peer already sent before closing:
				// closing with unread data risks a reset that discards the
				// busy frame before the peer reads it.
				io.Copy(io.Discard, conn)
			}()
			continue
		}
		s.conns[conn] = true
		s.totalConns.Add(1)
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// ListenAndServe listens on addr and serves.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Close stops the listener and all connections, and waits for handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// truncateErrMsg caps msg at max bytes without splitting a UTF-8 rune:
// naive byte truncation at the frame limit could cut mid-sequence and hand
// the client an invalid string.
func truncateErrMsg(msg string, max int) string {
	if len(msg) <= max {
		return msg
	}
	cut := max
	for cut > 0 && !utf8.RuneStart(msg[cut]) {
		cut--
	}
	return msg[:cut]
}

// Client is a connection to an appliance Server. It is safe for concurrent
// use; requests are serialized on the single connection.
//
// Any transport error (failed or partial frame write/read) leaves the wire
// position unknown, so the client marks itself broken, closes the
// connection, and fails every subsequent call with ErrBrokenConn — the
// alternative is silently misparsing a stale byte of a half-read response
// as the next call's status frame. Server-reported RemoteErrors leave the
// protocol aligned and do not break the client.
type Client struct {
	addr string
	opts DialOptions

	mu         sync.Mutex
	conn       net.Conn
	br         *bufio.Reader
	bw         *bufio.Writer
	hdr        [headerSize]byte
	broken     error // first transport error; nil while the connection is usable
	closed     bool
	reconnects int64

	// proto is the negotiated protocol version: 0 until the first op
	// triggers negotiation (lazy, so Dial stays I/O-free), then ProtocolV1
	// or ProtocolV2 for the client's lifetime.
	proto int
	// gen counts connections: every (re)dial bumps it, and v2 pipeline
	// state (pending ops, the reader goroutine) is tagged with the gen it
	// belongs to, so a stale reader's failure cannot break a fresh
	// connection.
	gen int

	// v2 pipeline state: pending maps in-flight tags to their completion
	// slots. pendMu guards it (never held across I/O); nextTag is guarded
	// by mu (tags are assigned on the send path).
	pendMu  sync.Mutex
	pending map[uint32]*pendingOp
	nextTag uint32
}

// DialOptions hardens a Client against a flaky wire or a restarting
// appliance. The zero value imposes nothing (the historical Dial behavior:
// no deadlines, a broken connection stays broken).
type DialOptions struct {
	// Timeout bounds each round trip's wire I/O (request write through
	// response payload read; 0 = unbounded). A hit deadline breaks the
	// connection — the wire position is unknown — and, with MaxReconnects
	// set, triggers a redial.
	Timeout time.Duration
	// MaxReconnects is how many times an op whose connection broke mid-
	// flight redials and retries before giving up (0 = never: every op
	// after a transport error fails with ErrBrokenConn). Block reads and
	// writes are idempotent, so replaying one that may or may not have
	// reached the store is safe; note that a retried RotateEpoch whose
	// response (only) was lost rotates twice.
	MaxReconnects int
	// ReconnectBackoff is the initial delay between redial attempts,
	// doubling up to 1 s (default 50 ms).
	ReconnectBackoff time.Duration
	// DialTimeout bounds each dial, including redials (0 = the OS default).
	DialTimeout time.Duration
	// Protocol selects the wire protocol. ProtocolAuto (the default)
	// negotiates v2 on the first op and falls back to v1 when the server
	// rejects the HELLO (one transparent redial — v1 servers close the
	// connection on the unknown op). ProtocolV1 pins the legacy framing
	// and sends no HELLO; ProtocolV2 requires v2, failing ops against a
	// v1-only server.
	Protocol int
}

// Dial connects to an appliance at addr with no deadlines and no
// auto-reconnect (DialOptions zero value).
func Dial(addr string) (*Client, error) {
	return DialWith(addr, DialOptions{})
}

// DialWith connects to an appliance at addr, hardened with opts. The
// dial itself performs no protocol I/O; version negotiation (unless
// opts.Protocol pins v1) happens on the first operation.
func DialWith(addr string, opts DialOptions) (*Client, error) {
	switch opts.Protocol {
	case ProtocolAuto, ProtocolV1, ProtocolV2:
	default:
		return nil, fmt.Errorf("appliance: unknown protocol %d", opts.Protocol)
	}
	conn, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	c := &Client{
		addr: addr,
		opts: opts,
		conn: conn,
		br:   bufio.NewReaderSize(conn, connBufSize),
		bw:   bufio.NewWriterSize(conn, connBufSize),
	}
	if opts.Protocol == ProtocolV1 {
		c.proto = ProtocolV1
	}
	return c, nil
}

// Reconnects returns how many times the client has successfully redialed.
func (c *Client) Reconnects() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reconnects
}

// Close closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	err := c.conn.Close()
	if c.broken != nil {
		// fail already closed the conn; the second close's error is noise.
		return nil
	}
	return err
}

// fail marks the connection broken and closes it (the wire position is
// unknown, so it can never be safely reused). With MaxReconnects set, the
// surrounding do1 or do redials a fresh connection and retries.
func (c *Client) fail(err error) error {
	if c.broken == nil {
		c.broken = err
		c.conn.Close()
	}
	return err
}

// reconnectLocked redials the appliance, replacing the broken connection.
// Caller must hold c.mu (the sleeps hold up other callers of this client,
// which are serialized on the one connection anyway).
func (c *Client) reconnectLocked() error {
	backoff := c.opts.ReconnectBackoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	for attempt := 0; attempt < c.opts.MaxReconnects; attempt++ {
		if c.closed {
			return net.ErrClosed
		}
		if attempt > 0 {
			time.Sleep(backoff)
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
		}
		conn, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
		if err != nil {
			continue
		}
		c.conn = conn
		c.br = bufio.NewReaderSize(conn, connBufSize)
		c.bw = bufio.NewWriterSize(conn, connBufSize)
		c.broken = nil
		c.gen++
		if c.proto == ProtocolV2 {
			// The fresh connection must speak v2 again before pipelined
			// requests can ride on it. A failed HELLO marks the connection
			// broken and counts as a failed attempt.
			if err := c.helloV2Locked(); err != nil {
				if c.broken == nil {
					c.broken = fmt.Errorf("appliance: v2 renegotiation failed: %w", err)
					c.conn.Close()
				}
				continue
			}
			c.startReaderLocked()
		}
		c.reconnects++
		return nil
	}
	return fmt.Errorf("appliance: reconnect attempts exhausted: %w", c.broken)
}

// RemoteError is a server-side failure reported over the protocol.
type RemoteError struct{ Msg string }

// Error implements error.
func (e *RemoteError) Error() string { return "appliance: remote: " + e.Msg }

// roundTrip sends a v1 frame (header and payload segments coalesced into
// one buffered write) and reads the status byte; on a server error it
// consumes the frame and returns what it reports. Transport errors break
// the client.
func (c *Client) roundTrip(h headerV2, segs [][]byte) error {
	if c.broken != nil {
		return fmt.Errorf("%w: %w", ErrBrokenConn, c.broken)
	}
	v1 := header{op: h.op, server: h.server, volume: h.volume, offset: h.offset, length: h.length}
	v1.encode(c.hdr[:])
	_, err := c.bw.Write(c.hdr[:])
	for _, seg := range segs {
		if err == nil {
			_, err = c.bw.Write(seg)
		}
	}
	if err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		return c.fail(err)
	}
	status, err := c.br.ReadByte()
	if err != nil {
		return c.fail(err)
	}
	switch status {
	case statusOK:
		return nil
	case statusErr:
		remote, err := readErrFrame(c.br)
		if err != nil {
			return c.fail(err)
		}
		if remote == ErrServerBusy {
			// The server turned this connection away at its MaxConns limit
			// and is closing it: break proactively (a later redial may find
			// a free slot) and surface the sentinel.
			return c.fail(ErrServerBusy)
		}
		return remote
	}
	return c.fail(fmt.Errorf("%w: bad status 0x%02x", ErrProtocol, status))
}

// readErrFrame reads an error frame's body (u16 length, message) and
// returns the error it reports: ErrServerBusy for the busy frame, a
// *RemoteError otherwise. err is a failed read.
func readErrFrame(br *bufio.Reader) (remote, err error) {
	var lenBuf [2]byte
	if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
		return nil, err
	}
	msg := make([]byte, binary.BigEndian.Uint16(lenBuf[:]))
	if _, err := io.ReadFull(br, msg); err != nil {
		return nil, err
	}
	if string(msg) == ErrServerBusy.Error() {
		return ErrServerBusy, nil
	}
	return &RemoteError{Msg: string(msg)}, nil
}

// ErrIDRange reports a server or volume id that does not fit the wire
// format's uint16 fields. Without this check the cast below would wrap —
// server 65536 would silently address server 0's blocks.
var ErrIDRange = errors.New("appliance: server/volume id out of range")

// checkIDs validates ids client-side before they are narrowed to uint16.
// The appliance additionally enforces its own (tighter) block.MaxServers/
// MaxVolumes limits server-side.
func checkIDs(server, volume int) error {
	if server < 0 || server > 0xFFFF || volume < 0 || volume > 0xFFFF {
		return fmt.Errorf("%w: server=%d volume=%d", ErrIDRange, server, volume)
	}
	return nil
}

// ReadAt reads len(p) bytes from the remote volume at off.
func (c *Client) ReadAt(server, volume int, p []byte, off uint64) error {
	if len(p) > MaxIOBytes {
		return fmt.Errorf("%w: read of %d bytes exceeds limit", ErrProtocol, len(p))
	}
	if err := checkIDs(server, volume); err != nil {
		return err
	}
	return c.do(headerV2{op: OpRead, server: uint16(server), volume: uint16(volume), offset: off, length: uint32(len(p))},
		nil, &pendingOp{op: OpRead, read: p})
}

// WriteAt writes p to the remote volume at off.
func (c *Client) WriteAt(server, volume int, p []byte, off uint64) error {
	if len(p) > MaxIOBytes {
		return fmt.Errorf("%w: write of %d bytes exceeds limit", ErrProtocol, len(p))
	}
	if err := checkIDs(server, volume); err != nil {
		return err
	}
	return c.do(headerV2{op: OpWrite, server: uint16(server), volume: uint16(volume), offset: off, length: uint32(len(p))},
		[][]byte{p}, &pendingOp{op: OpWrite})
}

// RotateEpoch forces a SieveStore-D epoch rotation on the appliance
// (no-op for a VariantC appliance).
func (c *Client) RotateEpoch() error {
	return c.do(headerV2{op: OpRotate}, nil, &pendingOp{op: OpRotate})
}

// Flush asks the appliance to write its dirty write-back blocks to the
// ensemble (a no-op for a write-through appliance). Flushes arriving
// within the server's group-commit window coalesce into one staged
// write-back pass. Requires a server that understands OpFlush (this
// repo's v1 servers do; the op predates nothing else).
func (c *Client) Flush() error {
	return c.do(headerV2{op: OpFlush}, nil, &pendingOp{op: OpFlush})
}

// Invalidate drops the appliance's cached blocks in [off, off+length),
// returning how many were resident. Use after modifying the backing
// ensemble outside the appliance.
func (c *Client) Invalidate(server, volume int, off uint64, length int) (int, error) {
	if err := checkIDs(server, volume); err != nil {
		return 0, err
	}
	// length narrows to the header's u32: validate like ReadAt/WriteAt do,
	// or a negative (or >4 GiB) length would silently wrap into a bogus
	// extent.
	if length <= 0 || length > MaxIOBytes {
		return 0, fmt.Errorf("%w: invalidate of %d bytes out of range", ErrProtocol, length)
	}
	p := &pendingOp{op: OpInvalidate}
	err := c.do(headerV2{op: OpInvalidate, server: uint16(server), volume: uint16(volume), offset: off, length: uint32(length)}, nil, p)
	return int(p.inval), err
}

// Stats fetches the appliance's cache statistics.
func (c *Client) Stats() (core.Stats, error) {
	var st core.Stats
	p := &pendingOp{op: OpStats}
	if err := c.do(headerV2{op: OpStats}, nil, p); err != nil {
		return st, err
	}
	return st, json.Unmarshal(p.stats, &st)
}
