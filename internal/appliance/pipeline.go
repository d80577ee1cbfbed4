// The client's op path: lazy version negotiation, the one helper every
// op goes through (do: a locked round trip on v1, the tagged request
// pipeline on v2 — per-tag completion map + one reader goroutine per
// connection), the shared body reader, and the ReadBatch/WriteBatch
// scatter/gather API.
package appliance

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// pendingOp is one request's result slot; readBody fills it in both
// framings. On v2 it is also the in-flight completion slot: the sender
// registers it under the tag, the reader goroutine fills the result and
// closes done. transport marks failures that broke the connection (the
// retry envelope replays those); server error frames are not transport
// failures.
type pendingOp struct {
	op   byte
	read []byte   // OpRead: destination buffer, filled by the reader
	vec  []Extent // OpReadV: destination extents, filled in table order

	stats []byte // OpStats: raw JSON payload
	inval uint32 // OpInvalidate: dropped count

	gen       int
	err       error
	transport bool
	done      chan struct{}
}

func (p *pendingOp) reset() {
	p.err = nil
	p.transport = false
	p.done = make(chan struct{})
}

// protoFor returns the protocol version ops should use, running the
// lazy first-op negotiation if it hasn't happened yet.
func (c *Client) protoFor() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, net.ErrClosed
	}
	if c.proto == 0 {
		if err := c.negotiateLocked(); err != nil {
			return 0, err
		}
	}
	return c.proto, nil
}

// negotiateLocked runs the first-op HELLO under c.mu. In auto mode a
// server that answers with an error frame (a v1 server's "unknown op",
// after which it closes the connection) gets one transparent redial and
// pins v1; transport errors break the client like any v1 op's would.
func (c *Client) negotiateLocked() error {
	if c.broken != nil {
		// Same envelope as do1: a broken connection (a busy reject,
		// or a transport failure before the first op) redials when the
		// retry budget allows, then negotiates on the fresh connection.
		if c.opts.MaxReconnects <= 0 {
			return fmt.Errorf("%w: %w", ErrBrokenConn, c.broken)
		}
		if rerr := c.reconnectLocked(); rerr != nil {
			return fmt.Errorf("%w: %w", ErrBrokenConn, rerr)
		}
	}
	ver, err := c.helloExchangeLocked()
	switch {
	case err == nil && ver >= ProtocolV2:
		c.proto = ProtocolV2
		c.startReaderLocked()
		return nil
	case err == nil:
		// The server answered the HELLO but capped the version at v1.
		if c.opts.Protocol == ProtocolV2 {
			return fmt.Errorf("%w: server speaks only protocol v%d", ErrProtocol, ver)
		}
		c.proto = ProtocolV1
		return nil
	default:
		var remote *RemoteError
		if !errors.As(err, &remote) {
			return err // transport error (already marked broken) or busy
		}
		// A v1 server: it reported "unknown op" and closed the connection.
		if c.opts.Protocol == ProtocolV2 {
			return fmt.Errorf("%w: server rejected v2 HELLO: %w", ErrProtocol, err)
		}
		if derr := c.redialOnceLocked(); derr != nil {
			return derr
		}
		c.proto = ProtocolV1
		return nil
	}
}

// helloExchangeLocked performs one v1-framed HELLO round trip on the
// current connection, returning the negotiated version. Transport errors
// mark the connection broken.
func (c *Client) helloExchangeLocked() (int, error) {
	if c.opts.Timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.opts.Timeout))
	}
	err := c.roundTrip(headerV2{op: OpHello, offset: ProtocolV2}, nil)
	var remote *RemoteError
	if errors.As(err, &remote) {
		// The peer is about to close this connection (v1 servers treat
		// HELLO as an unknown op and hang up): mark it unusable so the
		// auto-mode redial is the only way forward.
		return 0, c.fail(remote)
	}
	if err != nil {
		return 0, err
	}
	ver, err := c.br.ReadByte()
	if err != nil {
		return 0, c.fail(err)
	}
	return int(ver), nil
}

// helloV2Locked renegotiates v2 on a freshly redialed connection
// (reconnectLocked); anything short of a v2 answer is an error.
func (c *Client) helloV2Locked() error {
	ver, err := c.helloExchangeLocked()
	if err != nil {
		return err
	}
	if ver < ProtocolV2 {
		return fmt.Errorf("%w: server no longer speaks protocol v2 (got v%d)", ErrProtocol, ver)
	}
	return nil
}

// redialOnceLocked replaces the connection with a single fresh dial —
// the v1-fallback path after a server hung up on our HELLO. It is
// independent of the MaxReconnects budget (the server is healthy; the
// hang-up is how v1 servers say "no") and doesn't count as a reconnect.
func (c *Client) redialOnceLocked() error {
	conn, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return fmt.Errorf("%w: v1 fallback redial: %w", ErrBrokenConn, err)
	}
	c.conn = conn
	c.br = bufio.NewReaderSize(conn, connBufSize)
	c.bw = bufio.NewWriterSize(conn, connBufSize)
	c.broken = nil
	c.gen++
	return nil
}

// startReaderLocked launches the response reader for the current
// connection generation.
func (c *Client) startReaderLocked() {
	if c.pending == nil {
		c.pending = make(map[uint32]*pendingOp)
	}
	// The HELLO exchange armed a deadline that would otherwise linger:
	// with no op in flight yet on this generation (we hold c.mu, nothing
	// has been sent), an idle reader must not time out waiting for the
	// first response. send2 re-arms the deadline per request.
	if c.opts.Timeout > 0 {
		c.conn.SetDeadline(time.Time{})
	}
	go c.readLoop(c.conn, c.br, c.gen)
}

// failConn marks the given connection generation broken (if it is still
// current) and aborts its pending ops with a transport failure.
func (c *Client) failConn(gen int, err error) {
	c.mu.Lock()
	if gen == c.gen && c.broken == nil {
		c.broken = err
		c.conn.Close()
	}
	c.mu.Unlock()
	c.abortPending(gen, err)
}

// abortPending completes every pending op of the given generation with a
// transport failure.
func (c *Client) abortPending(gen int, err error) {
	c.pendMu.Lock()
	for tag, p := range c.pending {
		if p.gen != gen {
			continue
		}
		delete(c.pending, tag)
		p.err = err
		p.transport = true
		close(p.done)
	}
	c.pendMu.Unlock()
}

// readLoop is the single response reader of one v2 connection: it
// demultiplexes tagged response frames into their pending slots, reading
// payloads directly into the caller's buffers (no intermediate copy).
// Any framing anomaly — unknown tag, bad magic, short read — leaves the
// stream position unknown, so it breaks the connection.
func (c *Client) readLoop(conn net.Conn, br *bufio.Reader, gen int) {
	for {
		var head [respHeadV2]byte
		if _, err := io.ReadFull(br, head[:]); err != nil {
			c.failConn(gen, err)
			return
		}
		if head[0] != respMagic {
			c.failConn(gen, fmt.Errorf("%w: bad response magic 0x%02x", ErrProtocol, head[0]))
			return
		}
		tag := binary.BigEndian.Uint32(head[1:5])
		status := head[5]
		c.pendMu.Lock()
		p := c.pending[tag]
		if p != nil && p.gen == gen {
			delete(c.pending, tag)
		} else {
			p = nil
		}
		c.pendMu.Unlock()
		if p == nil {
			c.failConn(gen, fmt.Errorf("%w: response for unknown tag %d", ErrProtocol, tag))
			return
		}
		var rerr error
		switch status {
		case statusOK:
			rerr = readBody(br, p)
		case statusErr:
			p.err, rerr = readErrFrame(br)
		default:
			rerr = fmt.Errorf("%w: bad status 0x%02x", ErrProtocol, status)
		}
		if rerr != nil {
			// The frame body couldn't be read: complete this op as a
			// transport failure too, then break the rest.
			p.err = rerr
			p.transport = true
			close(p.done)
			c.failConn(gen, rerr)
			return
		}
		// When the pipeline drains, clear the read deadline armed by the
		// send path so the idle reader doesn't time out between bursts.
		// The clear must happen INSIDE the pendMu critical section that
		// observes the empty map: send2 registers under pendMu before
		// arming its deadline, so clearing outside the lock could wipe a
		// deadline a concurrent sender just armed and leave that op
		// waiting forever on a hung server.
		if c.opts.Timeout > 0 {
			c.pendMu.Lock()
			if len(c.pending) == 0 {
				conn.SetReadDeadline(time.Time{})
			}
			c.pendMu.Unlock()
		}
		close(p.done)
	}
}

// readBody reads a statusOK response body into the pending op; the body
// shapes are the same in both framings.
func readBody(br *bufio.Reader, p *pendingOp) error {
	switch p.op {
	case OpRead:
		_, err := io.ReadFull(br, p.read)
		return err
	case OpReadV:
		for _, e := range p.vec {
			if _, err := io.ReadFull(br, e.Data); err != nil {
				return err
			}
		}
		return nil
	case OpStats:
		var lenBuf [4]byte
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return err
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n > maxStatsBytes {
			return fmt.Errorf("%w: %d-byte stats payload exceeds limit", ErrProtocol, n)
		}
		p.stats = make([]byte, n)
		_, err := io.ReadFull(br, p.stats)
		return err
	case OpInvalidate:
		var b [4]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return err
		}
		p.inval = binary.BigEndian.Uint32(b[:])
		return nil
	default: // OpWrite, OpWriteV, OpRotate, OpFlush: empty body
		return nil
	}
}

// send2 assigns a tag, registers p, and writes one v2 frame (header plus
// payload segments, coalesced in the write buffer). A write failure
// breaks the connection and aborts the pipeline — including p, whose
// done channel is then already closed. Entry errors (closed client,
// broken connection without retry budget, exhausted reconnects) are
// returned without registering p.
func (c *Client) send2(h headerV2, segs [][]byte, p *pendingOp) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return net.ErrClosed
	}
	if c.broken != nil {
		if c.opts.MaxReconnects <= 0 {
			return fmt.Errorf("%w: %w", ErrBrokenConn, c.broken)
		}
		if rerr := c.reconnectLocked(); rerr != nil {
			return fmt.Errorf("%w: %w", ErrBrokenConn, rerr)
		}
	}
	h.tag = c.nextTag
	c.nextTag++
	p.gen = c.gen
	c.pendMu.Lock()
	c.pending[h.tag] = p
	c.pendMu.Unlock()
	if c.opts.Timeout > 0 {
		// Covers this request's write and — because the reader clears it
		// only when the pipeline drains — the whole in-flight window.
		c.conn.SetDeadline(time.Now().Add(c.opts.Timeout))
	}
	var hdr [headerSizeV2]byte
	h.encode(hdr[:])
	_, err := c.bw.Write(hdr[:])
	for _, seg := range segs {
		if err != nil {
			break
		}
		if len(seg) > 0 {
			_, err = c.bw.Write(seg)
		}
	}
	if err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		// Mark broken under mu, then abort the generation's pipeline
		// (pendMu only). p is among the aborted: the caller's wait returns
		// immediately with the transport failure.
		gen := c.gen
		if c.broken == nil {
			c.broken = err
			c.conn.Close()
		}
		c.abortPending(gen, err)
	}
	return nil
}

// do runs one op on the negotiated protocol and reads its OK body into
// p. On v1 that is one locked round trip (do1). On v2 the op is
// pipelined, with the same redial-and-replay envelope do1 gives v1:
// transport failures are retried up to MaxReconnects times, server error
// frames are not.
func (c *Client) do(h headerV2, segs [][]byte, p *pendingOp) error {
	proto, err := c.protoFor()
	if err != nil {
		return err
	}
	if proto != ProtocolV2 {
		return c.do1(h, segs, p)
	}
	for attempt := 0; ; attempt++ {
		p.reset()
		if err := c.send2(h, segs, p); err != nil {
			return err
		}
		<-p.done
		if p.err == nil || !p.transport || attempt >= c.opts.MaxReconnects {
			return p.err
		}
		// Transport failure with retry budget left: the next send2 finds
		// the connection broken, redials (re-HELLOing v2), and replays.
	}
}

// do1 runs one op as a v1 round trip under the client lock and reads its
// OK body into p, with the per-roundtrip deadline armed and — when the
// connection breaks mid-op and MaxReconnects allows — a redial-and-retry
// envelope around it.
func (c *Client) do1(h headerV2, segs [][]byte, p *pendingOp) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for attempt := 0; ; attempt++ {
		if c.closed {
			return net.ErrClosed
		}
		if c.broken != nil {
			if c.opts.MaxReconnects <= 0 {
				return fmt.Errorf("%w: %w", ErrBrokenConn, c.broken)
			}
			if rerr := c.reconnectLocked(); rerr != nil {
				return fmt.Errorf("%w: %w", ErrBrokenConn, rerr)
			}
		}
		if c.opts.Timeout > 0 {
			c.conn.SetDeadline(time.Now().Add(c.opts.Timeout))
		}
		err := c.roundTrip(h, segs)
		if err == nil {
			if err = readBody(c.br, p); err != nil {
				err = c.fail(err)
			}
		}
		if c.broken == nil || attempt >= c.opts.MaxReconnects {
			return err
		}
		// Transport failure with retry budget left: loop to redial and
		// replay the op on the fresh connection.
	}
}

// validateBatch applies the scalar ops' client-side validation to a
// batch: ids must fit the wire format, every extent must be non-empty,
// and no extent or the batch total may exceed MaxIOBytes.
func validateBatch(exts []Extent) error {
	if len(exts) == 0 {
		return fmt.Errorf("%w: empty batch", ErrProtocol)
	}
	if len(exts) > MaxVecExtents {
		return fmt.Errorf("%w: batch of %d extents exceeds limit %d", ErrProtocol, len(exts), MaxVecExtents)
	}
	total := 0
	for i, e := range exts {
		if err := checkIDs(e.Server, e.Volume); err != nil {
			return err
		}
		if len(e.Data) == 0 || len(e.Data) > MaxIOBytes {
			return fmt.Errorf("%w: batch extent %d length %d out of range", ErrProtocol, i, len(e.Data))
		}
		total += len(e.Data)
		if total > MaxIOBytes {
			return fmt.Errorf("%w: batch total exceeds %d bytes", ErrProtocol, MaxIOBytes)
		}
	}
	return nil
}

// ReadBatch fills every extent's Data in one scatter/gather round trip
// (protocol v2). Against a v1 server the batch degrades to sequential
// per-extent reads. The batch is all-or-nothing: any extent's failure
// fails the whole call and leaves all Data contents undefined.
func (c *Client) ReadBatch(exts []Extent) error {
	if err := validateBatch(exts); err != nil {
		return err
	}
	table := appendExtentTable(nil, exts)
	return c.batch(exts, headerV2{op: OpReadV, length: uint32(len(table))},
		[][]byte{table}, &pendingOp{op: OpReadV, vec: exts},
		func(e Extent) error { return c.ReadAt(e.Server, e.Volume, e.Data, e.Off) })
}

// WriteBatch writes every extent's Data in one scatter/gather round trip
// (protocol v2). Against a v1 server the batch degrades to sequential
// per-extent writes. Like concurrent WriteAt calls, a failure can leave
// a mix of applied and unapplied extents.
func (c *Client) WriteBatch(exts []Extent) error {
	if err := validateBatch(exts); err != nil {
		return err
	}
	table := appendExtentTable(nil, exts)
	segs := make([][]byte, 0, len(exts)+1)
	segs = append(segs, table)
	total := 0
	for _, e := range exts {
		segs = append(segs, e.Data)
		total += len(e.Data)
	}
	return c.batch(exts, headerV2{op: OpWriteV, length: uint32(len(table) + total)},
		segs, &pendingOp{op: OpWriteV},
		func(e Extent) error { return c.WriteAt(e.Server, e.Volume, e.Data, e.Off) })
}

// batch runs a vector frame on v2. v1 has no vector ops, so there each
// extent goes through scalar instead.
func (c *Client) batch(exts []Extent, h headerV2, segs [][]byte, p *pendingOp, scalar func(Extent) error) error {
	proto, err := c.protoFor()
	if err != nil {
		return err
	}
	if proto == ProtocolV2 {
		return c.do(h, segs, p)
	}
	for _, e := range exts {
		if err := scalar(e); err != nil {
			return err
		}
	}
	return nil
}
