// Wire protocol v2: tagged pipelined frames, vector (scatter/gather)
// ops, and the version negotiation that keeps v1 peers working. See
// DESIGN.md §11.
//
//	request:  magic 'S' | op u8 | tag u32 | server u16 | volume u16 | offset u64 | length u32 | payload
//	response: magic 'R' | tag u32 | status u8 | body
//
// The response body keeps the v1 per-op shapes (read payload, stats
// u32-prefixed JSON, invalidate u32 count, error u16-prefixed message);
// the tag lets the server complete requests out of order and the client
// keep many in flight on one connection.
//
// OpReadV/OpWriteV carry an extent table in the payload:
//
//	count u16 | count × { server u16 | volume u16 | offset u64 | length u32 }
//
// followed (OpWriteV) by the extents' data, concatenated in table order.
// An OpReadV OK response body is the concatenated data alone — the
// client knows every length from its own table.
package appliance

import (
	"encoding/binary"
	"fmt"
	"sync"
)

const (
	respMagic = 0x52 // 'R' — v2 response frames lead with this

	// OpReadV and OpWriteV are protocol-v2 scatter/gather ops: N extents
	// in one frame, fanned out to the store's shards server-side.
	OpReadV  = 6
	OpWriteV = 7
	// OpHello negotiates the protocol version. It is framed as a v1
	// request whose offset field carries the client's maximum supported
	// version; the OK response body is one byte, the negotiated version.
	// A version ≥2 switches the connection to v2 framing for all
	// subsequent frames. v1-only servers answer "unknown op" and close —
	// the client redials and pins v1.
	OpHello = 8
	// OpFlush asks the appliance to write its dirty write-back blocks to
	// the ensemble (a no-op for write-through appliances). Valid in both
	// protocol versions; concurrent flushes group-commit server-side when
	// -group-commit-window is set.
	OpFlush = 9

	headerSizeV2 = 1 + 1 + 4 + 2 + 2 + 8 + 4 // magic op tag server volume offset length
	respHeadV2   = 1 + 4 + 1                 // magic tag status

	// Protocol versions for DialOptions.Protocol and
	// ServerOptions.MaxProtocol.
	ProtocolAuto = 0 // client: negotiate v2, fall back to v1; server: zero value = v2
	ProtocolV1   = 1
	ProtocolV2   = 2

	// MaxVecExtents bounds the extent count of one OpReadV/OpWriteV frame.
	MaxVecExtents = 1024
	extentSize    = 2 + 2 + 8 + 4

	// maxStatsBytes bounds the OpStats response payload a client will
	// accept: the u32 length prefix arrives from an untrusted peer, and a
	// corrupt or malicious one must not be able to force a ~4 GiB
	// allocation. Real core.Stats JSON is well under 4 KiB.
	maxStatsBytes = 4 << 20

	// defaultMaxPipeline is how many pipelined requests one v2 connection
	// may have in flight server-side before the reader stops pulling new
	// frames (ServerOptions.MaxPipeline = 0).
	defaultMaxPipeline = 32
)

// headerV2 is the fixed-size request prefix of a v2 frame: the v1 header
// with a u32 tag after the op byte. Both framings decode into it (a v1
// request has tag 0), so the server and client op paths are shared.
type headerV2 struct {
	op     byte
	tag    uint32
	server uint16
	volume uint16
	offset uint64
	length uint32
}

func (h *headerV2) encode(buf []byte) {
	buf[0] = magic
	buf[1] = h.op
	binary.BigEndian.PutUint32(buf[2:], h.tag)
	binary.BigEndian.PutUint16(buf[6:], h.server)
	binary.BigEndian.PutUint16(buf[8:], h.volume)
	binary.BigEndian.PutUint64(buf[10:], h.offset)
	binary.BigEndian.PutUint32(buf[18:], h.length)
}

func decodeHeaderV2(buf []byte) (headerV2, error) {
	if buf[0] != magic {
		return headerV2{}, fmt.Errorf("%w: bad magic 0x%02x", ErrProtocol, buf[0])
	}
	h := headerV2{
		op:     buf[1],
		tag:    binary.BigEndian.Uint32(buf[2:]),
		server: binary.BigEndian.Uint16(buf[6:]),
		volume: binary.BigEndian.Uint16(buf[8:]),
		offset: binary.BigEndian.Uint64(buf[10:]),
		length: binary.BigEndian.Uint32(buf[18:]),
	}
	if h.length > MaxIOBytes {
		return headerV2{}, fmt.Errorf("%w: length %d exceeds limit", ErrProtocol, h.length)
	}
	return h, nil
}

// respHead stamps a v2 response prefix into buf.
func respHead(buf []byte, tag uint32, status byte) {
	buf[0] = respMagic
	binary.BigEndian.PutUint32(buf[1:5], tag)
	buf[5] = status
}

// Extent is one extent of a Client.ReadBatch/WriteBatch: len(Data) bytes
// of volume (Server, Volume) at byte offset Off. ReadBatch fills Data;
// WriteBatch sends it.
type Extent struct {
	Server, Volume int
	Off            uint64
	Data           []byte
}

// wireExtent is the decoded form of one extent-table entry.
type wireExtent struct {
	server, volume uint16
	off            uint64
	length         uint32
}

// appendExtentTable appends the wire encoding of exts' table (count +
// entries, no data) to buf. Callers validate exts first.
func appendExtentTable(buf []byte, exts []Extent) []byte {
	var b [extentSize]byte
	binary.BigEndian.PutUint16(b[:2], uint16(len(exts)))
	buf = append(buf, b[:2]...)
	for _, e := range exts {
		binary.BigEndian.PutUint16(b[0:], uint16(e.Server))
		binary.BigEndian.PutUint16(b[2:], uint16(e.Volume))
		binary.BigEndian.PutUint64(b[4:], e.Off)
		binary.BigEndian.PutUint32(b[12:], uint32(len(e.Data)))
		buf = append(buf, b[:]...)
	}
	return buf
}

// decodeExtentTable parses and structurally validates the extent table at
// the head of an OpReadV/OpWriteV payload, returning the entries, the
// remaining bytes (OpWriteV data; must be empty for OpReadV), and the
// total data length. Per-extent and total lengths are bounded by
// MaxIOBytes; id-range checks against block.MaxServers/MaxVolumes are the
// server's (it answers an error frame, like v1 does for scalar ops).
func decodeExtentTable(p []byte) (tab []wireExtent, rest []byte, total int, err error) {
	if len(p) < 2 {
		return nil, nil, 0, fmt.Errorf("%w: vector frame too short", ErrProtocol)
	}
	count := int(binary.BigEndian.Uint16(p))
	if count == 0 || count > MaxVecExtents {
		return nil, nil, 0, fmt.Errorf("%w: vector count %d out of range [1, %d]", ErrProtocol, count, MaxVecExtents)
	}
	need := 2 + count*extentSize
	if len(p) < need {
		return nil, nil, 0, fmt.Errorf("%w: vector table truncated", ErrProtocol)
	}
	tab = make([]wireExtent, count)
	for i := range tab {
		o := 2 + i*extentSize
		e := wireExtent{
			server: binary.BigEndian.Uint16(p[o:]),
			volume: binary.BigEndian.Uint16(p[o+2:]),
			off:    binary.BigEndian.Uint64(p[o+4:]),
			length: binary.BigEndian.Uint32(p[o+12:]),
		}
		if e.length == 0 || e.length > MaxIOBytes {
			return nil, nil, 0, fmt.Errorf("%w: vector extent length %d out of range", ErrProtocol, e.length)
		}
		total += int(e.length)
		if total > MaxIOBytes {
			return nil, nil, 0, fmt.Errorf("%w: vector total exceeds %d bytes", ErrProtocol, MaxIOBytes)
		}
		tab[i] = e
	}
	return tab, p[need:], total, nil
}

// payloadPool recycles request payloads and read scratch buffers across
// connections and requests.
var payloadPool sync.Pool

// poolGet returns a length-n buffer backed by the payload pool.
func poolGet(n int) []byte {
	if v := payloadPool.Get(); v != nil {
		b := *v.(*[]byte)
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

// poolPut recycles a buffer obtained from poolGet.
func poolPut(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	payloadPool.Put(&b)
}
