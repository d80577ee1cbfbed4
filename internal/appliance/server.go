// The server's connection loop and op executor, shared by both framings.
// A connection starts on v1 and switches to v2 after a HELLO; from then
// on only the header codec and the response prefix differ. v1 is the
// depth-1 case: its peer waits for each response, so its requests run
// inline on the reader. v2 requests run on up to
// ServerOptions.MaxPipeline per-connection workers and complete out of
// order, staging their responses under a per-connection write mutex. Reads are served
// zero-copy from pinned cache frames where the blocks are resident.
package appliance

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/core"
)

// request is one decoded request with its pool-owned payload.
type request struct {
	h       headerV2
	payload []byte
}

// serverConn is one served connection.
type serverConn struct {
	s    *Server
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	v2   bool // set by the reader after HELLO, before any worker starts

	wmu sync.Mutex // serializes response staging + flush

	// v2 workers; the reader alone starts them and hands them requests.
	jobs    chan request
	workers int
	maxP    int
	wg      sync.WaitGroup

	dmu    sync.Mutex // guards active and the connection's deadlines
	active int        // requests between header arrival and response staging
}

// serveConn serves one connection until EOF, a transport error, or a
// terminating frame. A malformed header or an unknown op (a redundant
// HELLO, or a vector op on v1) is answered with a final error frame and
// closes the connection — after every in-flight request has responded,
// so that frame is deterministically the last on the wire. Out-of-range
// ids and malformed vector tables answer an error frame and keep the
// connection: the payload was consumed, so the stream stays aligned.
func (s *Server) serveConn(conn net.Conn) {
	c := &serverConn{
		s:    s,
		conn: conn,
		br:   bufio.NewReaderSize(conn, connBufSize),
		bw:   bufio.NewWriterSize(conn, connBufSize),
	}
	defer conn.Close()
	defer c.drain() // runs first: every accepted request gets its response
	c.idle()
	hdr := make([]byte, headerSizeV2)
	for {
		buf := hdr[:headerSize]
		if c.v2 {
			buf = hdr
		}
		if _, err := io.ReadFull(c.br, buf); err != nil {
			return // EOF, idle timeout, or broken connection
		}
		c.begin()
		s.requests.Add(1)
		h, err := c.decode(buf)
		if err != nil {
			// The v2 tag sits at a fixed offset even in a rejected header;
			// echo it so the client can fail the right op.
			c.closeWith(binary.BigEndian.Uint32(buf[2:6]), err)
			return
		}
		var payload []byte
		if h.op == OpWrite || c.v2 && (h.op == OpReadV || h.op == OpWriteV) {
			payload = poolGet(int(h.length))
			if _, err := io.ReadFull(c.br, payload); err != nil {
				poolPut(payload)
				c.end() // the request will never answer; balance begin
				return
			}
		}
		// v1 checks the header ids on every op; v2 only on the ops whose
		// header addresses blocks (exec).
		if !c.v2 && !idsOK(h.server, h.volume) {
			poolPut(payload)
			c.replyErr(h.tag, errIDs(h.server, h.volume))
			continue
		}
		switch {
		case h.op == OpHello && !c.v2 && s.opts.MaxProtocol != ProtocolV1:
			c.hello(h)
		case c.serves(h.op):
			c.dispatch(h, payload)
		default:
			poolPut(payload)
			c.closeWith(h.tag, fmt.Errorf("%w: unknown op %d", ErrProtocol, h.op))
			return
		}
	}
}

// decode parses a request header in the connection's framing; v1
// headers carry no tag.
func (c *serverConn) decode(buf []byte) (headerV2, error) {
	if c.v2 {
		return decodeHeaderV2(buf)
	}
	h, err := decodeHeader(buf)
	return headerV2{op: h.op, server: h.server, volume: h.volume, offset: h.offset, length: h.length}, err
}

// serves reports whether op is a request op of the connection's framing:
// the vector ops exist only in v2. HELLO is not one (serveConn answers it).
func (c *serverConn) serves(op byte) bool {
	switch op {
	case OpRead, OpWrite, OpStats, OpRotate, OpInvalidate, OpFlush:
		return true
	case OpReadV, OpWriteV:
		return c.v2
	}
	return false
}

// hello answers a version negotiation: the v1-framed offset field carries
// the client's maximum version, the one-byte OK body the chosen one. v2
// takes effect from the next frame on.
func (c *serverConn) hello(h headerV2) {
	ver := byte(ProtocolV1)
	if h.offset >= ProtocolV2 {
		ver = ProtocolV2
	}
	c.reply(h.tag, statusOK, nil, []byte{ver})
	if ver == ProtocolV2 {
		c.maxP = c.s.opts.MaxPipeline
		if c.maxP <= 0 {
			c.maxP = defaultMaxPipeline
		}
		c.jobs = make(chan request)
		c.v2 = true
		c.s.v2Conns.Add(1)
	}
}

// dispatch runs one request. A v1 request runs inline (depth 1). A v2
// request goes to an idle worker, or to a new one while fewer than
// MaxPipeline run; with all of them busy the reader stalls until one is
// free. Workers live as long as the connection, so a pipelined request
// costs a channel hand-off, not a fresh goroutine that must grow its
// stack again.
func (c *serverConn) dispatch(h headerV2, payload []byte) {
	r := request{h, payload}
	if !c.v2 {
		c.exec(r)
		return
	}
	select {
	case c.jobs <- r:
		return
	default:
	}
	if c.workers < c.maxP {
		c.workers++
		c.wg.Add(1)
		go c.work(c.jobs, r)
		return
	}
	c.jobs <- r
}

// work runs r, then every request handed to it until jobs closes.
func (c *serverConn) work(jobs <-chan request, r request) {
	defer c.wg.Done()
	for ok := true; ok; r, ok = <-jobs {
		c.exec(r)
	}
}

// drain waits until every dispatched request has answered and its
// worker has exited.
func (c *serverConn) drain() {
	if c.jobs != nil {
		close(c.jobs)
		c.jobs = nil
	}
	c.wg.Wait()
}

// closeWith sends a connection's final error frame once every in-flight
// request has answered.
func (c *serverConn) closeWith(tag uint32, err error) {
	c.drain()
	c.replyErr(tag, err)
}

// begin marks a request live once its header has arrived: the I/O
// deadline now covers its payload, service and response (each arriving
// request re-arms it for the whole pipeline), or the idle deadline is
// lifted so a slow store op is not cut short.
func (c *serverConn) begin() {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	if c.active++; c.active > 1 {
		c.s.pipelinedReqs.Add(1)
	}
	if c.v2 {
		c.s.pipelineDepth.Add(1)
	}
	if o := c.s.opts; o.IOTimeout > 0 {
		c.conn.SetDeadline(time.Now().Add(o.IOTimeout))
	} else if o.IdleTimeout > 0 {
		c.conn.SetReadDeadline(time.Time{})
	}
}

// end retires a request once its response is staged; with none left in
// flight the connection is idle again.
func (c *serverConn) end() {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	if c.v2 {
		c.s.pipelineDepth.Add(-1)
	}
	if c.active--; c.active == 0 {
		c.idle()
	}
}

// idle arms the idle read deadline or, with no idle bound, clears the
// last request's read deadline so it cannot fire while the connection
// waits. The write deadline stays: it still bounds the response being
// flushed, and the next request re-arms it before any other write.
func (c *serverConn) idle() {
	if o := c.s.opts; o.IdleTimeout > 0 {
		c.conn.SetReadDeadline(time.Now().Add(o.IdleTimeout))
	} else if o.IOTimeout > 0 {
		c.conn.SetReadDeadline(time.Time{})
	}
}

// idsOK reports whether a (server, volume) pair fits the packed
// block.Key. MakeKey treats out-of-range components as a caller bug and
// panics, and a remote peer must not be able to take the daemon down
// with a stray header.
func idsOK(server, volume uint16) bool {
	return int(server) < block.MaxServers && int(volume) < block.MaxVolumes
}

func errIDs(server, volume uint16) error {
	return fmt.Errorf("appliance: server %d / volume %d out of range", server, volume)
}

// exec executes one request and sends its response: an error frame, or
// OK with the pinned views and then body. It releases r's payload.
func (c *serverConn) exec(r request) {
	h, payload := r.h, r.payload
	defer poolPut(payload)
	st := c.s.store
	var views [][]byte
	var body []byte
	var err error
	switch {
	case (h.op == OpRead || h.op == OpWrite || h.op == OpInvalidate) && !idsOK(h.server, h.volume):
		err = errIDs(h.server, h.volume)
	case h.op == OpRead:
		// Zero-copy fast path: pin the all-hit prefix's cache frames and
		// write them to the wire directly; only the (miss) tail is read
		// into a scratch buffer. ReadPinned accounts and logs the pinned
		// blocks itself, so the two halves count exactly like one ReadAt.
		n := int(h.length)
		pinned := 0
		if pr := st.ReadPinned(int(h.server), int(h.volume), n, h.offset); pr != nil {
			defer pr.Release()
			views, pinned = pr.Views(), pr.Bytes()
		}
		if n > pinned || n == 0 {
			body = poolGet(n - pinned)
			defer poolPut(body)
			err = st.ReadAt(int(h.server), int(h.volume), body, h.offset+uint64(pinned))
		}
		if err == nil {
			c.s.zeroCopyBytes.Add(int64(pinned))
		}
	case h.op == OpWrite:
		err = st.WriteAt(int(h.server), int(h.volume), payload, h.offset)
	case h.op == OpStats:
		body, err = statsBody(st)
	case h.op == OpRotate:
		err = st.RotateEpoch()
	case h.op == OpInvalidate:
		var dropped int
		dropped, err = st.Invalidate(int(h.server), int(h.volume), h.offset, int(h.length))
		body = binary.BigEndian.AppendUint32(nil, uint32(dropped))
	case h.op == OpFlush:
		err = st.Flush()
	case h.op == OpReadV || h.op == OpWriteV:
		body, err = c.execVec(h, payload)
		defer poolPut(body)
	}
	if err != nil {
		c.replyErr(h.tag, err)
		return
	}
	c.reply(h.tag, statusOK, views, body)
}

// statsBody encodes st's Stats as an OpStats OK body: a u32 length, then
// JSON. It is kept out of exec so the large Stats value does not sit in
// every pipeline worker's stack frame.
func statsBody(st BlockStore) ([]byte, error) {
	data, err := json.Marshal(st.Stats())
	if err != nil {
		return nil, err
	}
	return append(binary.BigEndian.AppendUint32(make([]byte, 0, 4+len(data)), uint32(len(data))), data...), nil
}

// execVec serves OpReadV/OpWriteV, returning an OpReadV's data in a pool
// buffer. The payload is decoded and fully validated before the store
// sees any extent.
func (c *serverConn) execVec(h headerV2, payload []byte) ([]byte, error) {
	tab, rest, total, err := decodeExtentTable(payload)
	for _, e := range tab {
		if !idsOK(e.server, e.volume) {
			err = errIDs(e.server, e.volume)
			break
		}
	}
	switch {
	case err != nil:
		return nil, err
	case h.op == OpReadV && len(rest) != 0:
		return nil, fmt.Errorf("%w: %d stray bytes after read vector table", ErrProtocol, len(rest))
	case h.op == OpWriteV && len(rest) != total:
		return nil, fmt.Errorf("%w: write vector data is %d bytes, table says %d", ErrProtocol, len(rest), total)
	}
	c.s.vecOps.Add(1)
	c.s.vecExtents.Add(int64(len(tab)))
	if h.op == OpWriteV {
		return nil, c.s.store.WriteVec(ioVecs(tab, rest))
	}
	buf := poolGet(total)
	return buf, c.s.store.ReadVec(ioVecs(tab, buf))
}

// ioVecs lays tab's extents over data in table order.
func ioVecs(tab []wireExtent, data []byte) []core.IOVec {
	vecs := make([]core.IOVec, len(tab))
	off := 0
	for i, e := range tab {
		vecs[i] = core.IOVec{Server: int(e.server), Volume: int(e.volume), P: data[off : off+int(e.length)], Off: e.off}
		off += int(e.length)
	}
	return vecs
}

// reply stages one response frame — the framing's prefix, the pinned
// views, then body — ends the request, and flushes the
// frame in one write. The request ends before the flush so counters and
// deadlines have settled by the time the peer sees the response. A flush
// failure closes the connection, which unblocks the reader; the
// remaining workers' flushes then fail the same way.
func (c *serverConn) reply(tag uint32, status byte, views [][]byte, body []byte) {
	c.wmu.Lock()
	if c.v2 {
		var head [respHeadV2]byte
		respHead(head[:], tag, status)
		c.bw.Write(head[:])
	} else {
		c.bw.WriteByte(status)
	}
	for _, v := range views {
		c.bw.Write(v)
	}
	c.bw.Write(body)
	c.end()
	err := c.bw.Flush()
	c.wmu.Unlock()
	if err != nil {
		c.conn.Close()
	}
}

// replyErr answers an error frame.
func (c *serverConn) replyErr(tag uint32, err error) {
	c.s.errorFrames.Add(1)
	c.reply(tag, statusErr, nil, errBody(err))
}

// errBody encodes an error frame's body: a u16 length, then the message,
// cut at maxErrMsg on a rune boundary.
func errBody(err error) []byte {
	msg := truncateErrMsg(err.Error(), maxErrMsg)
	return append(binary.BigEndian.AppendUint16(make([]byte, 0, 2+len(msg)), uint16(len(msg))), msg...)
}
