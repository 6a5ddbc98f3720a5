// Package wire is lambd's length-prefixed binary route protocol — the
// serving-layer counterpart of the allocation-free query core. HTTP/JSON costs
// a request parse, coordinate string formatting, and a handful of
// allocations per query; this protocol is a fixed 8-byte header plus a
// flat little-endian payload, designed so the server answers a query with
// zero heap allocations once a connection is warm.
//
// Frame layout (all integers little-endian):
//
//	[0]    magic 0xA7
//	[1]    version (1)
//	[2]    type: 1 route request, 2 route response, 3 error
//	[3]    reserved (0)
//	[4:8]  payload length (uint32)
//
// Route request payload:  [u8 d] [d x u16 src] [d x u16 dst]
// Route response payload: [u8 code] [u8 d] [u8 nvias] [u8 reserved]
//
//	[u16 hops] [u16 turns] [u64 generation] [nvias x d x u16 via]
//
// Error payload: UTF-8 message. An error frame is terminal: the server
// closes the connection after sending one.
//
// Clients may pipeline: requests are answered in order, one response per
// request, so a client can keep many frames in flight on one connection.
package wire

import (
	"encoding/binary"
	"fmt"
)

// Protocol constants.
const (
	Magic   = 0xA7
	Version = 1

	TRouteReq  = 1
	TRouteResp = 2
	TError     = 3

	HeaderLen = 8

	// MaxPayload bounds a frame so a corrupt or hostile length prefix
	// cannot make a peer allocate unbounded memory.
	MaxPayload = 1 << 20

	// MaxDims bounds the dimension byte (the protocol encodes d as u8).
	MaxDims = 255

	// MaxCoord bounds a coordinate value (encoded as u16).
	MaxCoord = 1<<16 - 1
)

// Route response codes.
const (
	CodeFound   = 0 // route exists; hops/turns/vias are valid
	CodeNoRoute = 1 // both endpoints usable, but no fault-free route
	CodeBadSrc  = 2 // src outside the mesh, faulty, or a lamb
	CodeBadDst  = 3 // dst outside the mesh, faulty, or a lamb
)

// Answer is one route answer in wire-friendly form. Via is the flattened
// NVias x d intermediate list; implementations reuse its capacity across
// queries, so callers must copy what they need to retain.
type Answer struct {
	Code  uint8
	Hops  int
	Turns int
	NVias int
	Gen   uint64
	Via   []int
}

// Backend answers route queries for a wire server. Query must be safe for
// concurrent use (one call per in-flight connection) and must write its
// entire answer into ans, reusing ans.Via's capacity.
type Backend interface {
	// Dims returns the mesh dimensionality every request must match.
	Dims() int
	// Query answers src -> dst. len(src) == len(dst) == Dims() is
	// guaranteed by the protocol layer; coordinate range checking is the
	// backend's job (out-of-mesh answers CodeBadSrc/CodeBadDst).
	Query(src, dst []int, ans *Answer)
}

// appendHeader appends a frame header for a payload of length n.
func appendHeader(b []byte, typ byte, n int) []byte {
	b = append(b, Magic, Version, typ, 0)
	return binary.LittleEndian.AppendUint32(b, uint32(n))
}

// parseHeader validates an 8-byte header and returns the type and payload
// length.
func parseHeader(h []byte) (typ byte, n int, err error) {
	if h[0] != Magic {
		return 0, 0, fmt.Errorf("wire: bad magic 0x%02x", h[0])
	}
	if h[1] != Version {
		return 0, 0, fmt.Errorf("wire: unsupported version %d", h[1])
	}
	if h[3] != 0 {
		return 0, 0, fmt.Errorf("wire: nonzero reserved byte 0x%02x", h[3])
	}
	n = int(binary.LittleEndian.Uint32(h[4:8]))
	if n > MaxPayload {
		return 0, 0, fmt.Errorf("wire: payload length %d exceeds limit %d", n, MaxPayload)
	}
	switch h[2] {
	case TRouteReq, TRouteResp, TError:
		return h[2], n, nil
	}
	return 0, 0, fmt.Errorf("wire: unknown frame type %d", h[2])
}

// AppendRouteReq appends a route request frame for src -> dst.
func AppendRouteReq(b []byte, src, dst []int) ([]byte, error) {
	d := len(src)
	if d == 0 || d > MaxDims || len(dst) != d {
		return b, fmt.Errorf("wire: bad request dims %d/%d", len(src), len(dst))
	}
	b = appendHeader(b, TRouteReq, 1+4*d)
	b = append(b, byte(d))
	for _, v := range src {
		if v < 0 || v > MaxCoord {
			return b, fmt.Errorf("wire: coordinate %d out of range", v)
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(v))
	}
	for _, v := range dst {
		if v < 0 || v > MaxCoord {
			return b, fmt.Errorf("wire: coordinate %d out of range", v)
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(v))
	}
	return b, nil
}

// ParseRouteReq decodes a route request payload into src and dst, reusing
// their capacity. The caller has already verified the frame type.
func ParseRouteReq(p []byte, src, dst []int) (s, t []int, err error) {
	if len(p) < 1 {
		return src, dst, fmt.Errorf("wire: empty request payload")
	}
	d := int(p[0])
	if d == 0 || len(p) != 1+4*d {
		return src, dst, fmt.Errorf("wire: request payload length %d does not match d=%d", len(p), d)
	}
	src, dst = src[:0], dst[:0]
	off := 1
	for i := 0; i < d; i++ {
		src = append(src, int(binary.LittleEndian.Uint16(p[off:])))
		off += 2
	}
	for i := 0; i < d; i++ {
		dst = append(dst, int(binary.LittleEndian.Uint16(p[off:])))
		off += 2
	}
	return src, dst, nil
}

// AppendRouteResp appends a route response frame for an answer on a
// d-dimensional mesh.
func AppendRouteResp(b []byte, ans *Answer, d int) ([]byte, error) {
	if d == 0 || d > MaxDims || ans.NVias > 255 || len(ans.Via) != ans.NVias*d {
		return b, fmt.Errorf("wire: bad response shape d=%d nvias=%d len(via)=%d", d, ans.NVias, len(ans.Via))
	}
	if ans.Hops < 0 || ans.Hops > MaxCoord || ans.Turns < 0 || ans.Turns > MaxCoord {
		return b, fmt.Errorf("wire: hops/turns %d/%d out of range", ans.Hops, ans.Turns)
	}
	b = appendHeader(b, TRouteResp, 16+2*len(ans.Via))
	b = append(b, ans.Code, byte(d), byte(ans.NVias), 0)
	b = binary.LittleEndian.AppendUint16(b, uint16(ans.Hops))
	b = binary.LittleEndian.AppendUint16(b, uint16(ans.Turns))
	b = binary.LittleEndian.AppendUint64(b, ans.Gen)
	for _, v := range ans.Via {
		if v < 0 || v > MaxCoord {
			return b, fmt.Errorf("wire: via coordinate %d out of range", v)
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(v))
	}
	return b, nil
}

// ParseRouteResp decodes a route response payload into ans, reusing
// ans.Via's capacity.
func ParseRouteResp(p []byte, ans *Answer) error {
	if len(p) < 16 {
		return fmt.Errorf("wire: response payload too short (%d bytes)", len(p))
	}
	d, nvias := int(p[1]), int(p[2])
	if p[3] != 0 {
		return fmt.Errorf("wire: nonzero reserved byte in response")
	}
	if d == 0 || len(p) != 16+2*nvias*d {
		return fmt.Errorf("wire: response payload length %d does not match d=%d nvias=%d", len(p), d, nvias)
	}
	ans.Code = p[0]
	ans.Hops = int(binary.LittleEndian.Uint16(p[4:]))
	ans.Turns = int(binary.LittleEndian.Uint16(p[6:]))
	ans.Gen = binary.LittleEndian.Uint64(p[8:])
	ans.NVias = nvias
	ans.Via = ans.Via[:0]
	off := 16
	for i := 0; i < nvias*d; i++ {
		ans.Via = append(ans.Via, int(binary.LittleEndian.Uint16(p[off:])))
		off += 2
	}
	return nil
}

// AppendError appends an error frame.
func AppendError(b []byte, msg string) []byte {
	if len(msg) > MaxPayload {
		msg = msg[:MaxPayload]
	}
	b = appendHeader(b, TError, len(msg))
	return append(b, msg...)
}

// DecodeFrame splits one frame off the front of b, returning its type,
// payload, and the remaining bytes. It is the slice-based twin of the
// stream reader, used by tests and fuzzing.
func DecodeFrame(b []byte) (typ byte, payload, rest []byte, err error) {
	if len(b) < HeaderLen {
		return 0, nil, b, fmt.Errorf("wire: short header (%d bytes)", len(b))
	}
	typ, n, err := parseHeader(b[:HeaderLen])
	if err != nil {
		return 0, nil, b, err
	}
	if len(b) < HeaderLen+n {
		return 0, nil, b, fmt.Errorf("wire: truncated payload (%d of %d bytes)", len(b)-HeaderLen, n)
	}
	return typ, b[HeaderLen : HeaderLen+n], b[HeaderLen+n:], nil
}
