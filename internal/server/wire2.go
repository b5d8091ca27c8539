package server

// Protocol v2: compact binary framing, the only wire protocol.
//
// A client opens the conversation with an 8-byte hello — the magic
// "SCDB", a version byte, a flags byte, and two reserved bytes — and the
// server answers with the same 8-byte shape carrying the accepted version.
// A connection that opens with anything else is closed unanswered, and a
// dialer whose hello is not answered in kind reports a protocol mismatch.
//
// Every v2 frame is:
//
//	u32be  n       length of everything after this field (op..payload)
//	u8     op      V2Op* code
//	u8     flags   reserved (0)
//	u32be  id      request id — responses are matched to requests by id,
//	               so one connection multiplexes many in-flight requests
//	[]byte payload n-6 bytes
//
// Every payload begins with a per-frame string-intern table (uvarint
// count, then count length-prefixed byte strings); strings in the body are
// uvarint indexes into it, so repeated column names, attribute keys, and
// enum-like values are encoded once per frame. The body after the table is
// op-specific. Numbers are fixed-width 8-byte little-endian (int64 bits,
// IEEE-754 bits, UnixNano); lengths and counts are uvarints. Row batches
// are columnar: a column whose values all share one kind is written as a
// single kind tag followed by the packed values, so integer, float, time,
// and ref columns are straight 8-byte lanes and string columns are packed
// intern indexes.
//
// The codec is allocation-conscious: encoders are pooled and assemble the
// complete frame (header + table + body) into one reusable buffer, so a
// response is one buffer build and one Write. Decoders are pure slice
// walkers — malformed input must produce an error, never a panic, and
// never an attacker-sized allocation (counts are validated against the
// bytes that remain).
//
// The buffer rule: a decoder copies everything it returns out of the
// payload — strings out of the intern table's one string, bytes into
// buffers of their own — so a reader may read its next frame into the same
// payload buffer (V2ReadBuf with keep). DecodeV2ReplBatch and DecodeV2Query
// are the exceptions: their entries and statement alias the payload, and
// the follower and the server read every frame into a buffer of its own.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"sync"
	"time"
	"unsafe"

	"scdb"
	"scdb/internal/curate"
	"scdb/internal/datagen"
	"scdb/internal/er"
	"scdb/internal/model"
)

// ProtoV2 is the protocol version carried in the hello exchange.
const ProtoV2 = 2

// v2Magic opens both hellos.
var v2Magic = [4]byte{'S', 'C', 'D', 'B'}

const v2HelloLen = 8

// isV2Magic reports whether the first bytes of a connection announce a v2
// hello. b must hold at least 4 bytes.
func isV2Magic(b []byte) bool { return [4]byte(b[:4]) == v2Magic }

// WriteClientHello sends the v2 connect preamble.
func WriteClientHello(w io.Writer) error {
	var h [v2HelloLen]byte
	copy(h[:], v2Magic[:])
	h[4] = ProtoV2
	_, err := w.Write(h[:])
	return err
}

// readClientHello consumes the client hello after the server has peeked
// the magic, and reports the client's proposed version.
func readClientHello(r io.Reader) (byte, error) {
	var h [v2HelloLen]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return 0, err
	}
	if [4]byte(h[:4]) != v2Magic {
		return 0, errors.New("wire2: bad hello magic")
	}
	if h[4] < ProtoV2 {
		return 0, fmt.Errorf("wire2: client proposed version %d", h[4])
	}
	return h[4], nil
}

// WriteServerHello answers a client hello with the accepted version.
func WriteServerHello(w io.Writer, version byte) error {
	var h [v2HelloLen]byte
	copy(h[:], v2Magic[:])
	h[4] = version
	_, err := w.Write(h[:])
	return err
}

// ReadServerHello reads the server's answer to a client hello. A non-magic
// reply or an unsupported version returns an error.
func ReadServerHello(r io.Reader) (byte, error) {
	var h [v2HelloLen]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return 0, err
	}
	if [4]byte(h[:4]) != v2Magic {
		return 0, errors.New("wire2: server does not speak protocol v2")
	}
	if h[4] != ProtoV2 {
		return 0, fmt.Errorf("wire2: server accepted unsupported version %d", h[4])
	}
	return h[4], nil
}

// v2 frame ops. Requests and responses share the code space; responses are
// matched to requests by id, and V2OpResult echoes the request op as its
// first body byte so a response can't be misread against the wrong call.
const (
	V2OpPing  byte = 0x01
	V2OpQuery byte = 0x02
	// 0x03 asked for a plan (the EXPLAIN statement answers that) and 0x04
	// carried a whole source in one frame; neither is reused, and a server
	// answers both as unknown ops.
	V2OpIngestBatch byte = 0x05
	// V2OpIngestChunk carries one chunk of an ingest_batch stream. Chunks
	// are self-delimiting frames routed by request id, so a failed stream
	// never leaves the connection unframeable: chunks for a finished or
	// unknown request are simply discarded.
	V2OpIngestChunk byte = 0x06
	// 0x07, 0x08 and 0x09 asked for the stats, the metrics text and the
	// slow-op log; the node's sys.* relations answer those through the
	// query op. None is reused, and a server answers each as an unknown op.
	// V2OpCancel asks the server to cancel the identified in-flight
	// request. The canceled request still gets its (error) response, so
	// cancellation never desynchronizes the stream.
	V2OpCancel byte = 0x0A
	// V2OpReplSubscribe turns the connection into a replication stream: the
	// payload carries the follower's applied CSN, and the server answers
	// with a V2OpReplFrames sequence (snapshot chunks if the follower is
	// below the checkpoint horizon, then live WAL frames) until either side
	// disconnects.
	V2OpReplSubscribe byte = 0x0B
	// V2OpReplAck reports a follower's applied CSN back up its subscription
	// (routed by request id, like ingest chunks); the primary folds it into
	// lag metrics and stats.
	V2OpReplAck byte = 0x0C
	// V2OpERDigests pulls the node's incremental ER evidence past the
	// request's two watermarks (entities, matches). The shard router calls
	// it after every routed ingest; the reply is a typed digest batch
	// (EncodeV2DigestsResult).
	V2OpERDigests byte = 0x0D

	// V2OpRowBatch is a server frame carrying one columnar batch of query
	// result rows; more frames for the same id follow.
	V2OpRowBatch byte = 0x20
	// V2OpResult is the final (successful) server frame of a request.
	V2OpResult byte = 0x21
	// V2OpError is the final server frame of a failed request.
	V2OpError byte = 0x22
	// V2OpReplFrames is a server frame on a replication subscription: a
	// batch of WAL entries with a watermark, a snapshot chunk, or the
	// snapshot-done marker. More frames for the same id always follow (the
	// stream ends only in V2OpError or disconnect).
	V2OpReplFrames byte = 0x23
)

// v2OpName maps an op code onto the Op* strings that label the per-op
// metrics and the slow-op log.
func v2OpName(op byte) string {
	switch op {
	case V2OpPing:
		return OpPing
	case V2OpQuery:
		return OpQuery
	case V2OpIngestBatch:
		return OpIngestBatch
	case V2OpERDigests:
		return OpERDigests
	case V2OpCancel:
		return "cancel"
	case V2OpReplSubscribe, V2OpReplAck:
		return "repl"
	}
	return fmt.Sprintf("op_0x%02x", op)
}

// Error code bytes (V2OpError payloads); V2CodeString maps them back to
// the Code* strings clients switch on. A code byte a client does not know
// reads as CodeQuery, so a new code stays an error to an older client.
const (
	v2CodeBusy byte = iota + 1
	v2CodeDeadline
	v2CodeCanceled
	v2CodeBadRequest
	v2CodeQuery
	v2CodeShutdown
	v2CodeReadOnly
	v2CodeInvalidDelivery
)

func v2CodeByte(code string) byte {
	switch code {
	case CodeBusy:
		return v2CodeBusy
	case CodeDeadline:
		return v2CodeDeadline
	case CodeCanceled:
		return v2CodeCanceled
	case CodeBadRequest:
		return v2CodeBadRequest
	case CodeShutdown:
		return v2CodeShutdown
	case CodeReadOnly:
		return v2CodeReadOnly
	case CodeInvalidDelivery:
		return v2CodeInvalidDelivery
	}
	return v2CodeQuery
}

// V2CodeString maps an error code byte to its Code* string form.
func V2CodeString(b byte) string {
	switch b {
	case v2CodeBusy:
		return CodeBusy
	case v2CodeDeadline:
		return CodeDeadline
	case v2CodeCanceled:
		return CodeCanceled
	case v2CodeBadRequest:
		return CodeBadRequest
	case v2CodeShutdown:
		return CodeShutdown
	case v2CodeReadOnly:
		return CodeReadOnly
	case v2CodeInvalidDelivery:
		return CodeInvalidDelivery
	}
	return CodeQuery
}

// Value kind codes — also used as homogeneous column tags. v2kMixed tags a
// column whose values differ in kind (each value then carries its own kind
// byte).
const (
	v2kNull  byte = 0
	v2kBool  byte = 1
	v2kInt   byte = 2
	v2kFloat byte = 3
	v2kStr   byte = 4
	v2kTime  byte = 5
	v2kBytes byte = 6
	v2kList  byte = 7
	v2kRef   byte = 8
	v2kMixed byte = 0xFF
)

// Decode-side sanity bounds: counts in a frame may never imply more memory
// than a few multiples of the frame itself, so a malformed or hostile
// frame cannot force large allocations.
const (
	v2MaxRowsPerBatch = 1 << 21
	v2MaxCols         = 1 << 16
	v2MaxCells        = 1 << 22
	v2MaxListDepth    = 64
)

const v2FrameFixed = 6 // op + flags + id, counted by the length prefix

// V2Frame is one decoded v2 frame.
type V2Frame struct {
	Op      byte
	Flags   byte
	ID      uint32
	Payload []byte
}

// ReadV2Frame reads one frame into buffers of its own. A declared length
// above max returns ErrFrameTooLarge before any payload byte is consumed.
func ReadV2Frame(r io.Reader, max int) (V2Frame, error) {
	var b V2ReadBuf
	return b.Read(r, max, false)
}

// v2KeptPayload is the largest payload a V2ReadBuf keeps for the next
// frame; a larger one gets a buffer of its own, so one large frame does
// not pin its size on the connection.
const v2KeptPayload = 64 << 10

// V2ReadBuf is one connection reader's frame buffers: the header, the
// payload buffer a reader may keep across frames, and the intern-table
// entries its DecodeRows and DecodeResult parse each frame's table into.
// The entries are scratch: every string a decoder returns is a substring
// of the frame's one table string, never a reference to the entries.
type V2ReadBuf struct {
	hdr     [4 + v2FrameFixed]byte
	payload []byte
	tab     []string
}

// dec starts a decoder over payload with b's intern-table scratch.
func (b *V2ReadBuf) dec(payload []byte) (v2Dec, error) {
	d, err := newV2Dec(payload, b.tab)
	if cap(d.tab) > cap(b.tab) {
		b.tab = d.tab
	}
	return d, err
}

// done drops the strings the scratch table holds, so a kept buffer keeps
// no frame's table alive.
func (b *V2ReadBuf) done(d *v2Dec) { clear(d.tab) }

// Read reads one frame, its header into b. With keep, a payload up to
// v2KeptPayload bytes is read into b's buffer, which the next Read
// overwrites: a reader keeps it only if every decoder it calls copies
// what it returns. A declared length above max returns ErrFrameTooLarge
// before any payload byte is consumed.
func (b *V2ReadBuf) Read(r io.Reader, max int, keep bool) (V2Frame, error) {
	if _, err := io.ReadFull(r, b.hdr[:]); err != nil {
		return V2Frame{}, err
	}
	n := binary.BigEndian.Uint32(b.hdr[:4])
	if n < v2FrameFixed {
		return V2Frame{}, fmt.Errorf("wire2: short frame length %d", n)
	}
	f := V2Frame{
		Op:    b.hdr[4],
		Flags: b.hdr[5],
		ID:    binary.BigEndian.Uint32(b.hdr[6:10]),
	}
	if max > 0 && n > uint32(max) {
		// The header is already parsed, so the caller can still address an
		// error reply to the right request id before dropping the
		// connection (the unread payload makes the stream unframeable).
		return f, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, max)
	}
	if pn := int(n) - v2FrameFixed; pn > 0 {
		switch {
		case !keep || pn > v2KeptPayload:
			f.Payload = make([]byte, pn)
		case cap(b.payload) < pn:
			b.payload = make([]byte, pn)
			f.Payload = b.payload
		default:
			f.Payload = b.payload[:pn]
		}
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return V2Frame{}, err
		}
	}
	return f, nil
}

// V2Enc assembles frames: the body and the intern table grow separately,
// then Frame appends header + table + body to one reusable output buffer.
// Frames encoded one after another into one encoder follow each other in
// that buffer, so the last Frame's bytes carry them all to one Write.
// Encoders are pooled — Get with GetV2Enc, hand the Frame bytes to exactly
// one Write, then Release.
type V2Enc struct {
	out  []byte
	body []byte
	tab  []byte
	ntab uint64
	strs map[string]uint64
}

var v2EncPool = sync.Pool{
	New: func() any { return &V2Enc{strs: make(map[string]uint64, 32)} },
}

// GetV2Enc takes a reset encoder from the pool.
func GetV2Enc() *V2Enc { return v2EncPool.Get().(*V2Enc) }

// Release resets the encoder and returns it to the pool. The buffer
// returned by Frame is invalid afterwards.
func (e *V2Enc) Release() {
	e.out = e.out[:0]
	e.resetFrame()
	v2EncPool.Put(e)
}

// resetFrame empties the body and the intern table for the next frame.
func (e *V2Enc) resetFrame() {
	e.body = e.body[:0]
	e.tab = e.tab[:0]
	e.ntab = 0
	clear(e.strs)
}

// Frame finalizes the message — header, intern table, body — appends it
// to the output and returns the output: every frame encoded since Get.
func (e *V2Enc) Frame(op, flags byte, id uint32) []byte {
	var cnt [binary.MaxVarintLen64]byte
	cn := binary.PutUvarint(cnt[:], e.ntab)
	n := v2FrameFixed + cn + len(e.tab) + len(e.body)
	e.out = binary.BigEndian.AppendUint32(e.out, uint32(n))
	e.out = append(e.out, op, flags)
	e.out = binary.BigEndian.AppendUint32(e.out, id)
	e.out = append(e.out, cnt[:cn]...)
	e.out = append(e.out, e.tab...)
	e.out = append(e.out, e.body...)
	e.resetFrame()
	return e.out
}

func (e *V2Enc) u8(b byte)        { e.body = append(e.body, b) }
func (e *V2Enc) u64le(v uint64)   { e.body = binary.LittleEndian.AppendUint64(e.body, v) }
func (e *V2Enc) uvarint(v uint64) { e.body = binary.AppendUvarint(e.body, v) }
func (e *V2Enc) f64(v float64)    { e.u64le(math.Float64bits(v)) }

// str interns s and writes its index into the body.
func (e *V2Enc) str(s string) { e.uvarint(e.intern(s)) }

func (e *V2Enc) intern(s string) uint64 {
	if i, ok := e.strs[s]; ok {
		return i
	}
	i := e.ntab
	e.ntab++
	e.strs[s] = i
	e.tab = binary.AppendUvarint(e.tab, uint64(len(s)))
	e.tab = append(e.tab, s...)
	return i
}

// rawBytes writes a length-prefixed byte string into the body (no
// interning — used for blobs and []byte values).
func (e *V2Enc) rawBytes(b []byte) {
	e.uvarint(uint64(len(b)))
	e.body = append(e.body, b...)
}

// valueModel writes one engine value with its kind byte (modelKindByte).
func (e *V2Enc) valueModel(v model.Value) {
	e.u8(modelKindByte(v))
	switch v.Kind() {
	case model.KindBool:
		if b, _ := v.AsBool(); b {
			e.u8(1)
		} else {
			e.u8(0)
		}
	case model.KindInt:
		i, _ := v.AsInt()
		e.u64le(uint64(i))
	case model.KindFloat:
		f, _ := v.AsFloat()
		e.f64(f)
	case model.KindString:
		s, _ := v.AsString()
		e.str(s)
	case model.KindTime:
		t, _ := v.AsTime()
		e.u64le(uint64(t.UnixNano()))
	case model.KindBytes:
		b, _ := v.AsBytes()
		e.rawBytes(b)
	case model.KindRef:
		id, _ := v.AsRef()
		e.u64le(uint64(id))
	case model.KindList:
		l, _ := v.AsList()
		e.uvarint(uint64(len(l)))
		for _, el := range l {
			e.valueModel(el)
		}
	}
}

// valueAny writes one public facade value with its kind byte: the value
// scdb.ToValue makes of it, as valueModel writes that.
func (e *V2Enc) valueAny(v any) error {
	mv, err := scdb.ToValue(v)
	if err != nil {
		return err
	}
	e.valueModel(mv)
	return nil
}

// modelKindByte maps an engine value onto its wire kind code.
func modelKindByte(v model.Value) byte {
	switch v.Kind() {
	case model.KindNull:
		return v2kNull
	case model.KindBool:
		return v2kBool
	case model.KindInt:
		return v2kInt
	case model.KindFloat:
		return v2kFloat
	case model.KindString:
		return v2kStr
	case model.KindTime:
		return v2kTime
	case model.KindBytes:
		return v2kBytes
	case model.KindRef:
		return v2kRef
	case model.KindList:
		return v2kList
	}
	return v2kNull
}

// v2Dec walks one frame payload. Every read is bounds-checked and every
// count is validated against the bytes that remain, so malformed frames
// error instead of panicking or allocating unbounded memory.
type v2Dec struct {
	b   []byte
	tab []string
}

var errV2Truncated = errors.New("wire2: truncated frame")

// newV2Dec parses the leading intern table into one string, the entries
// substrings of it: one allocation per frame, not one per entry, and the
// decoder itself is a value on its caller's stack. A string a caller keeps
// keeps the frame's table alive with it, never the payload. The entries go
// into tab's array when it has room (a reader's scratch, see V2ReadBuf),
// else into one of their own.
func newV2Dec(payload []byte, tab []string) (v2Dec, error) {
	d := v2Dec{b: payload}
	n, err := d.uvarint()
	if err != nil {
		return v2Dec{}, err
	}
	// Each table entry costs at least one byte (its length prefix), so the
	// count can never exceed the remaining payload.
	if n > uint64(len(d.b)) {
		return v2Dec{}, fmt.Errorf("wire2: intern table count %d exceeds frame", n)
	}
	if n == 0 {
		return d, nil
	}
	raw := d.b
	for i := uint64(0); i < n; i++ {
		if _, err := d.view(); err != nil {
			return v2Dec{}, err
		}
	}
	raw = raw[:len(raw)-len(d.b)]
	all, off := string(raw), 0
	if uint64(cap(tab)) >= n {
		d.tab = tab[:n]
	} else {
		d.tab = make([]string, n)
	}
	for i := range d.tab {
		ln, k := binary.Uvarint(raw[off:])
		off += k
		d.tab[i] = all[off : off+int(ln)]
		off += int(ln)
	}
	return d, nil
}

func (d *v2Dec) u8() (byte, error) {
	if len(d.b) < 1 {
		return 0, errV2Truncated
	}
	b := d.b[0]
	d.b = d.b[1:]
	return b, nil
}

func (d *v2Dec) u64le() (uint64, error) {
	if len(d.b) < 8 {
		return 0, errV2Truncated
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v, nil
}

func (d *v2Dec) f64() (float64, error) {
	v, err := d.u64le()
	return math.Float64frombits(v), err
}

func (d *v2Dec) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		return 0, errV2Truncated
	}
	d.b = d.b[n:]
	return v, nil
}

func (d *v2Dec) str() (string, error) {
	i, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if i >= uint64(len(d.tab)) {
		return "", fmt.Errorf("wire2: intern index %d out of range", i)
	}
	return d.tab[i], nil
}

// view reads a length-prefixed byte string without copying it: the result
// aliases the payload, with cap equal to len.
func (d *v2Dec) view() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.b)) {
		return nil, errV2Truncated
	}
	b := d.b[:n:n]
	d.b = d.b[n:]
	return b, nil
}

// rawBytes reads a length-prefixed byte string into a copy of its own.
func (d *v2Dec) rawBytes() ([]byte, error) {
	b, err := d.view()
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// --- columnar row batches -----------------------------------------------

// EncodeV2RowBatch builds a V2OpRowBatch frame from engine rows: uvarint
// nrows, uvarint ncols, then one vector per column. A column whose values
// all share one scalar kind is packed homogeneously (single kind tag, then
// fixed-width lanes or intern indexes); otherwise it falls back to
// per-value kind bytes. Ragged rows are rejected by construction upstream
// (the executor emits fixed-width rows).
func EncodeV2RowBatch(e *V2Enc, id uint32, batch [][]model.Value) []byte {
	nrows := len(batch)
	ncols := 0
	if nrows > 0 {
		ncols = len(batch[0])
	}
	e.uvarint(uint64(nrows))
	e.uvarint(uint64(ncols))
	for c := 0; c < ncols; c++ {
		tag := modelKindByte(batch[0][c])
		if tag == v2kList {
			tag = v2kMixed
		}
		for r := 1; r < nrows && tag != v2kMixed; r++ {
			if k := modelKindByte(batch[r][c]); k != tag || k == v2kList {
				tag = v2kMixed
			}
		}
		e.u8(tag)
		for r := 0; r < nrows; r++ {
			v := batch[r][c]
			switch tag {
			case v2kNull:
				// all null: no bytes
			case v2kBool:
				b, _ := v.AsBool()
				if b {
					e.u8(1)
				} else {
					e.u8(0)
				}
			case v2kInt:
				i, _ := v.AsInt()
				e.u64le(uint64(i))
			case v2kFloat:
				f, _ := v.AsFloat()
				e.f64(f)
			case v2kStr:
				s, _ := v.AsString()
				e.str(s)
			case v2kTime:
				t, _ := v.AsTime()
				e.u64le(uint64(t.UnixNano()))
			case v2kBytes:
				b, _ := v.AsBytes()
				e.rawBytes(b)
			case v2kRef:
				rid, _ := v.AsRef()
				e.u64le(uint64(rid))
			default: // v2kMixed
				e.valueModel(v)
			}
		}
	}
	return e.Frame(V2OpRowBatch, 0, id)
}

// DecodeRows appends a row-batch frame's rows to dst as engine values: the
// one row decoder. Each row is a full slice of vals when vals has room for
// the batch after its length (a reader's scratch), else of a new array
// with room for vals' length too, so that a reader reusing vals finds room
// for a result of several frames the next time; the grown vals comes back
// for the next frame. String cells are substrings of the frame's intern
// table, bytes cells copies carved from one buffer per column, list cells
// slices of their own: nothing aliases the payload, and nothing is boxed.
func (b *V2ReadBuf) DecodeRows(payload []byte, dst [][]model.Value, vals []model.Value) ([][]model.Value, []model.Value, error) {
	d, err := b.dec(payload)
	if err != nil {
		return nil, vals, err
	}
	defer b.done(&d)
	nrows, err := d.uvarint()
	if err != nil {
		return nil, vals, err
	}
	ncols, err := d.uvarint()
	if err != nil {
		return nil, vals, err
	}
	if nrows > v2MaxRowsPerBatch || ncols > v2MaxCols || nrows*ncols > v2MaxCells {
		return nil, vals, fmt.Errorf("wire2: batch dimensions %d x %d out of bounds", nrows, ncols)
	}
	w, n := int(ncols), int(nrows*ncols)
	if cap(vals)-len(vals) < n {
		vals = make([]model.Value, 0, len(vals)+n) // the rows before keep the old array
	}
	cells := vals[len(vals) : len(vals)+n]
	vals = vals[:len(vals)+n]
	base := len(dst)
	dst = slices.Grow(dst, int(nrows))
	for r := 0; r < int(nrows); r++ {
		dst = append(dst, cells[r*w:(r+1)*w:(r+1)*w])
	}
	rows := dst[base:]
	for c := 0; c < w; c++ {
		tag, err := d.u8()
		if err != nil {
			return nil, vals, err
		}
		switch tag {
		case v2kList:
			return nil, vals, errors.New("wire2: list column must be mixed-tagged")
		case v2kBytes:
			err = d.bytesColumn(rows, c)
		default: // one value at a time, its kind the column's or its own
			for _, row := range rows {
				k := tag
				if tag == v2kMixed {
					if k, err = d.u8(); err != nil {
						break
					}
				}
				if row[c], err = d.modelValue(k, 0); err != nil {
					break
				}
			}
		}
		if err != nil {
			return nil, vals, err
		}
	}
	return dst, vals, nil
}

// DecodeV2RowBatch appends a batch frame's rows to dst in public form:
// DecodeRows, then scdb.FromRows, the one place a result cell becomes an
// any. The batch's rows share one backing array, each sliced with cap
// equal to len; a column whose cells share one kind keeps them in one
// typed slab.
func DecodeV2RowBatch(payload []byte, dst [][]any) ([][]any, error) {
	var b V2ReadBuf
	rows, _, err := b.DecodeRows(payload, nil, nil)
	if err != nil {
		return nil, err
	}
	return scdb.FromRows(dst, rows), nil
}

// bytesColumn reads a bytes column into one buffer, sized by a first pass
// over the lengths; each cell is a slice of it with cap equal to len.
func (d *v2Dec) bytesColumn(rows [][]model.Value, c int) error {
	probe, size := *d, 0
	for range rows {
		b, err := probe.view()
		if err != nil {
			return err
		}
		size += len(b)
	}
	buf := make([]byte, 0, size)
	for _, row := range rows {
		b, _ := d.view() // the first pass read every length already
		buf = append(buf, b...)
		row[c] = model.Bytes(buf[len(buf)-len(b) : len(buf) : len(buf)])
	}
	return nil
}

// modelValue decodes one value of kind k as an engine value.
func (d *v2Dec) modelValue(k byte, depth int) (model.Value, error) {
	if depth > v2MaxListDepth {
		return model.Value{}, errors.New("wire2: value nesting too deep")
	}
	switch k {
	case v2kNull:
		return model.Null(), nil
	case v2kBool:
		b, err := d.u8()
		return model.Bool(b != 0), err
	case v2kInt:
		v, err := d.u64le()
		return model.Int(int64(v)), err
	case v2kFloat:
		f, err := d.f64()
		return model.Float(f), err
	case v2kStr:
		s, err := d.str()
		return model.String(s), err
	case v2kTime:
		v, err := d.u64le()
		return model.Time(time.Unix(0, int64(v))), err
	case v2kBytes:
		b, err := d.rawBytes()
		return model.Bytes(b), err
	case v2kRef:
		v, err := d.u64le()
		return model.Ref(model.EntityID(v)), err
	case v2kList:
		n, err := d.uvarint()
		if err != nil {
			return model.Value{}, err
		}
		// Each element costs at least its kind byte.
		if n > uint64(len(d.b)) {
			return model.Value{}, errV2Truncated
		}
		elems := make([]model.Value, n)
		for i := range elems {
			k, err := d.u8()
			if err != nil {
				return model.Value{}, err
			}
			if elems[i], err = d.modelValue(k, depth+1); err != nil {
				return model.Value{}, err
			}
		}
		return model.List(elems...), nil
	}
	return model.Value{}, fmt.Errorf("wire2: unknown value kind 0x%02x", k)
}

// --- requests -----------------------------------------------------------

// EncodeV2Query builds a query or explain request frame.
func EncodeV2Query(e *V2Enc, id uint32, op byte, q string, timeoutMS int64) []byte {
	e.uvarint(uint64(timeoutMS))
	e.rawBytes([]byte(q))
	return e.Frame(op, 0, id)
}

// DecodeV2Query parses a query request payload. The statement aliases it,
// so the payload must be one nothing writes again (V2ReadBuf without keep).
func DecodeV2Query(payload []byte) (q string, timeoutMS int64, err error) {
	d, err := newV2Dec(payload, nil)
	if err != nil {
		return "", 0, err
	}
	t, err := d.uvarint()
	if err != nil {
		return "", 0, err
	}
	b, err := d.view()
	if err != nil {
		return "", 0, err
	}
	return unsafe.String(unsafe.SliceData(b), len(b)), int64(t), nil
}

// EncodeV2Simple builds a bodiless request frame (ping, cancel).
func EncodeV2Simple(e *V2Enc, id uint32, op byte) []byte {
	return e.Frame(op, 0, id)
}

// EncodeV2ERDigests builds an er_digests request: the two resolver
// watermarks past which evidence should be exported.
func EncodeV2ERDigests(e *V2Enc, id uint32, entsSince, matchesSince int) []byte {
	e.uvarint(uint64(entsSince))
	e.uvarint(uint64(matchesSince))
	return e.Frame(V2OpERDigests, 0, id)
}

// DecodeV2ERDigests parses an er_digests request payload.
func DecodeV2ERDigests(payload []byte) (entsSince, matchesSince int, err error) {
	d, err := newV2Dec(payload, nil)
	if err != nil {
		return 0, 0, err
	}
	// A watermark past math.MaxInt would wrap negative and export the
	// whole resolver as if it were (0, 0).
	if entsSince, err = d.count(); err != nil {
		return 0, 0, err
	}
	if matchesSince, err = d.count(); err != nil {
		return 0, 0, err
	}
	return entsSince, matchesSince, nil
}

// entity writes one entity of an ingest chunk in public form: its key, its
// types and its attributes in key order, as an arrival whose fields are
// sorted by name (curate.Arrival) writes them. keys is the caller's scratch
// for the sorted names.
func (e *V2Enc) entity(keys []string, ent scdb.Entity) ([]string, error) {
	e.str(ent.Key)
	e.types(ent.Types)
	e.uvarint(uint64(len(ent.Attrs)))
	// Maps iterate in random order; sort keys so identical inputs
	// produce identical frames (tests and the fuzz corpus rely on it).
	keys = keys[:0]
	for k := range ent.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.str(k)
		if err := e.valueAny(ent.Attrs[k]); err != nil {
			return keys, fmt.Errorf("entity %q attr %q: %w", ent.Key, k, err)
		}
	}
	return keys, nil
}

// arrival writes one entity of an ingest chunk in engine form: its key,
// its types and its fields in their order.
func (e *V2Enc) arrival(a curate.Arrival) {
	e.str(a.Key)
	e.types(a.Types)
	e.uvarint(uint64(len(a.Fields)))
	for _, f := range a.Fields {
		e.str(f.Name)
		e.valueModel(f.Value)
	}
}

func (e *V2Enc) types(types []string) {
	e.uvarint(uint64(len(types)))
	for _, t := range types {
		e.str(t)
	}
}

// link writes one link of an ingest chunk; its literal, through val, only
// when it names no target key.
func link[V any](e *V2Enc, from, pred, to string, lit V, conf float64, val func(*V2Enc, V) error) error {
	e.str(from)
	e.str(pred)
	e.str(to)
	if to == "" {
		if err := val(e, lit); err != nil {
			return fmt.Errorf("link %s-[%s]: %w", from, pred, err)
		}
	}
	e.f64(conf)
	return nil
}

// writeModel is valueModel as a link value writer.
func writeModel(e *V2Enc, v model.Value) error {
	e.valueModel(v)
	return nil
}

func (e *V2Enc) entities(ents []scdb.Entity) (err error) {
	e.uvarint(uint64(len(ents)))
	var keys []string
	for _, ent := range ents {
		if keys, err = e.entity(keys, ent); err != nil {
			return err
		}
	}
	return nil
}

func (e *V2Enc) links(links []scdb.Link) error {
	e.uvarint(uint64(len(links)))
	for _, l := range links {
		if err := link(e, l.FromKey, l.Predicate, l.ToKey, l.Value, l.Confidence, (*V2Enc).valueAny); err != nil {
			return err
		}
	}
	return nil
}

// arrivals writes a delivery's entities, each with its fields in their
// order, and its links as links writes their public forms.
func (e *V2Enc) arrivals(d curate.Delivery) error {
	e.uvarint(uint64(len(d.Entities)))
	for _, a := range d.Entities {
		e.arrival(a)
	}
	e.uvarint(uint64(len(d.Links)))
	for _, l := range d.Links {
		if err := link(e, l.FromKey, l.Predicate, l.ToKey, l.Literal, l.Confidence, writeModel); err != nil {
			return err
		}
	}
	return nil
}

func (e *V2Enc) texts(texts []string) {
	e.uvarint(uint64(len(texts)))
	for _, t := range texts {
		e.str(t)
	}
}

// arrivals decodes an ingest frame's entities and links in the form a
// delivery owns them: each entity's attributes are a run of fields in
// frame order, every value an engine value (modelValue) decoded once. The
// entities' fields and types are carved from arrays the frame shares, so
// a frame of entities alike costs a constant number of objects whatever
// its length; no attribute map is made (the pipeline makes the row).
func (d *v2Dec) arrivals() (ents []curate.Arrival, links []datagen.LinkSpec, err error) {
	n, err := d.items()
	if err != nil {
		return nil, nil, err
	}
	ents = make([]curate.Arrival, n)
	var fields []curate.Field
	var types []string
	for i := range ents {
		a := &ents[i]
		if a.Key, err = d.str(); err != nil {
			return nil, nil, err
		}
		nt, err := d.items()
		if err != nil {
			return nil, nil, err
		}
		if nt > 0 {
			a.Types = carve(&types, nt, n-i, len(d.b))
			for j := range a.Types {
				if a.Types[j], err = d.str(); err != nil {
					return nil, nil, err
				}
			}
		}
		na, err := d.items()
		if err != nil {
			return nil, nil, err
		}
		if na > 0 {
			a.Fields = carve(&fields, na, n-i, len(d.b)/2)
			for j := range a.Fields {
				f := &a.Fields[j]
				if f.Name, err = d.str(); err != nil {
					return nil, nil, err
				}
				if f.Value, err = d.kindValue(); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	nl, err := d.items()
	if err != nil {
		return nil, nil, err
	}
	links = make([]datagen.LinkSpec, nl)
	for i := range links {
		l := &links[i]
		if l.FromKey, err = d.str(); err != nil {
			return nil, nil, err
		}
		if l.Predicate, err = d.str(); err != nil {
			return nil, nil, err
		}
		if l.ToKey, err = d.str(); err != nil {
			return nil, nil, err
		}
		if l.ToKey == "" {
			if l.Literal, err = d.kindValue(); err != nil {
				return nil, nil, err
			}
		}
		if l.Confidence, err = d.f64(); err != nil {
			return nil, nil, err
		}
	}
	return ents, links, nil
}

// carve takes the next k items of *slab, with cap k, for the first of the
// left entities still to decode. A slab too short for them is replaced by
// one sized for every entity left at k items each, at most limit (the
// items the rest of the frame can hold), so a frame whose entities are
// alike fills one slab.
func carve[T any](slab *[]T, k, left, limit int) []T {
	if cap(*slab)-len(*slab) < k {
		*slab = make([]T, 0, max(min(k*left, limit), k))
	}
	s := *slab
	*slab = s[:len(s)+k]
	return s[len(s) : len(s)+k : len(s)+k]
}

// items reads the count of a list whose every item costs at least one
// byte: a count past the bytes that remain is a truncated frame, never an
// allocation.
func (d *v2Dec) items() (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(d.b)) {
		return 0, errV2Truncated
	}
	return int(n), nil
}

// kindValue decodes one kind-tagged value as an engine value.
func (d *v2Dec) kindValue() (model.Value, error) {
	k, err := d.u8()
	if err != nil {
		return model.Value{}, err
	}
	return d.modelValue(k, 0)
}

func (d *v2Dec) texts() ([]string, error) {
	n, err := d.items()
	if err != nil {
		return nil, err
	}
	var out []string
	for i := 0; i < n; i++ {
		t, err := d.str()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// EncodeV2IngestBatchHeader opens a chunked ingest stream for the named
// source; V2OpIngestChunk frames with the same id follow.
func EncodeV2IngestBatchHeader(e *V2Enc, id uint32, name string, timeoutMS int64, trace bool) []byte {
	e.uvarint(uint64(timeoutMS))
	if trace {
		e.u8(1)
	} else {
		e.u8(0)
	}
	e.str(name)
	return e.Frame(V2OpIngestBatch, 0, id)
}

// DecodeV2IngestBatchHeader parses the stream-opening request.
func DecodeV2IngestBatchHeader(payload []byte) (name string, timeoutMS int64, trace bool, err error) {
	d, err := newV2Dec(payload, nil)
	if err != nil {
		return "", 0, false, err
	}
	t, err := d.uvarint()
	if err != nil {
		return "", 0, false, err
	}
	tb, err := d.u8()
	if err != nil {
		return "", 0, false, err
	}
	name, err = d.str()
	if err != nil {
		return "", 0, false, err
	}
	return name, int64(t), tb != 0, nil
}

// V2Chunk is one ingest_batch chunk in public form.
type V2Chunk struct {
	Entities []scdb.Entity
	Links    []scdb.Link
	Texts    []string
	Done     bool
}

// EncodeV2IngestChunk builds one chunk frame of an ingest stream.
func EncodeV2IngestChunk(e *V2Enc, id uint32, chunk V2Chunk) ([]byte, error) {
	if chunk.Done {
		e.u8(1)
	} else {
		e.u8(0)
	}
	if err := e.entities(chunk.Entities); err != nil {
		return nil, err
	}
	if err := e.links(chunk.Links); err != nil {
		return nil, err
	}
	e.texts(chunk.Texts)
	return e.Frame(V2OpIngestChunk, 0, id), nil
}

// EncodeV2Arrivals builds one chunk frame of an ingest stream from a
// delivery in engine form, each arrival's fields in their order: byte for
// byte the frame EncodeV2IngestChunk builds from the same delivery in
// public form when every arrival's fields are sorted by name, each name
// once, as every maker of an arrival writes them. A run decoded off
// another peer's frame goes out as it came. d.Source is the stream's, not
// the chunk's, and is not written.
func EncodeV2Arrivals(e *V2Enc, id uint32, d curate.Delivery, done bool) ([]byte, error) {
	if done {
		e.u8(1)
	} else {
		e.u8(0)
	}
	if err := e.arrivals(d); err != nil {
		return nil, err
	}
	e.texts(d.Texts)
	return e.Frame(V2OpIngestChunk, 0, id), nil
}

// DecodeV2Arrivals parses one chunk frame straight into the delivery the
// curation pipeline takes, its Source left for the stream to name: the
// one ingest chunk decoder. Each entity's attributes are a run of fields
// in frame order, from which the pipeline makes its stored row, and
// nothing aliases the payload.
func DecodeV2Arrivals(payload []byte) (d curate.Delivery, done bool, err error) {
	dec, err := newV2Dec(payload, nil)
	if err != nil {
		return curate.Delivery{}, false, err
	}
	flag, err := dec.u8()
	if err != nil {
		return curate.Delivery{}, false, err
	}
	if d.Entities, d.Links, err = dec.arrivals(); err != nil {
		return curate.Delivery{}, false, err
	}
	if d.Texts, err = dec.texts(); err != nil {
		return curate.Delivery{}, false, err
	}
	return d, flag != 0, nil
}

// DecodeV2IngestChunk parses one chunk frame in public form:
// DecodeV2Arrivals, then scdb.FromValue over every attribute and literal.
func DecodeV2IngestChunk(payload []byte) (V2Chunk, error) {
	d, done, err := DecodeV2Arrivals(payload)
	if err != nil {
		return V2Chunk{}, err
	}
	c := V2Chunk{Entities: make([]scdb.Entity, len(d.Entities)), Texts: d.Texts, Done: done}
	for i, a := range d.Entities {
		c.Entities[i] = scdb.Entity{Key: a.Key, Types: a.Types}
		if len(a.Fields) > 0 {
			attrs := make(scdb.Record, len(a.Fields))
			for _, f := range a.Fields {
				attrs[f.Name] = scdb.FromValue(f.Value)
			}
			c.Entities[i].Attrs = attrs
		}
	}
	if len(d.Links) > 0 {
		c.Links = make([]scdb.Link, len(d.Links))
		for i, l := range d.Links {
			c.Links[i] = scdb.Link{FromKey: l.FromKey, Predicate: l.Predicate, ToKey: l.ToKey, Confidence: l.Confidence}
			if l.ToKey == "" {
				c.Links[i].Value = scdb.FromValue(l.Literal)
			}
		}
	}
	return c, nil
}

// --- responses ----------------------------------------------------------

// EncodeV2Error builds the final frame of a failed request.
func EncodeV2Error(e *V2Enc, id uint32, code, msg string) []byte {
	e.u8(v2CodeByte(code))
	e.rawBytes([]byte(msg))
	return e.Frame(V2OpError, 0, id)
}

// DecodeV2Error parses a V2OpError payload.
func DecodeV2Error(payload []byte) (code, msg string, err error) {
	d, err := newV2Dec(payload, nil)
	if err != nil {
		return "", "", err
	}
	cb, err := d.u8()
	if err != nil {
		return "", "", err
	}
	mb, err := d.view()
	if err != nil {
		return "", "", err
	}
	return V2CodeString(cb), string(mb), nil
}

// info writes a QueryInfo (presence byte first).
func (e *V2Enc) info(info *scdb.QueryInfo) {
	if info == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	e.str(info.Plan)
	e.uvarint(uint64(len(info.Rules)))
	for _, r := range info.Rules {
		e.str(r)
	}
	var bits byte
	if info.CacheHit {
		bits |= 1
	}
	if info.PlanCached {
		bits |= 2
	}
	e.u8(bits)
	e.f64(info.EstimatedCost)
	e.str(info.OperatorStats)
}

// info reads a QueryInfo into info; present is its presence byte.
func (d *v2Dec) info(info *scdb.QueryInfo) (present bool, err error) {
	p, err := d.u8()
	if err != nil || p == 0 {
		return false, err
	}
	if info.Plan, err = d.str(); err != nil {
		return false, err
	}
	n, err := d.uvarint()
	if err != nil {
		return false, err
	}
	if n > uint64(len(d.b)) {
		return false, errV2Truncated
	}
	for i := uint64(0); i < n; i++ {
		r, err := d.str()
		if err != nil {
			return false, err
		}
		info.Rules = append(info.Rules, r)
	}
	bits, err := d.u8()
	if err != nil {
		return false, err
	}
	info.CacheHit = bits&1 != 0
	info.PlanCached = bits&2 != 0
	if info.EstimatedCost, err = d.f64(); err != nil {
		return false, err
	}
	if info.OperatorStats, err = d.str(); err != nil {
		return false, err
	}
	return true, nil
}

// V2Result is a decoded V2OpResult frame. Kind echoes the request op;
// which other fields are set depends on it.
// Info points into the result itself, so a copy of a V2Result shares
// the original's.
type V2Result struct {
	Kind    byte
	Columns []string        // query
	Info    *scdb.QueryInfo // query: &info, or nil when the frame has none
	Ingest  *IngestSummary  // ingest_batch
	Trace   string          // ingest_batch (traced)
	Digests *er.DigestBatch // er_digests
	CSN     uint64          // ping, ingest_batch

	info scdb.QueryInfo
}

// EncodeV2PingResult answers a ping with the node's current commit stamp
// (on a replica: its applied watermark — what routing clients poll).
func EncodeV2PingResult(e *V2Enc, id uint32, csn uint64) []byte {
	e.u8(V2OpPing)
	e.uvarint(csn)
	return e.Frame(V2OpResult, 0, id)
}

// EncodeV2QueryResult is the final frame of a streamed query: the column
// names (row batches already went out) and the query info.
func EncodeV2QueryResult(e *V2Enc, id uint32, cols []string, info *scdb.QueryInfo) []byte {
	e.u8(V2OpQuery)
	e.uvarint(uint64(len(cols)))
	for _, c := range cols {
		e.str(c)
	}
	e.info(info)
	return e.Frame(V2OpResult, 0, id)
}

// EncodeV2IngestResult answers an ingest_batch stream: its summary (after
// a presence byte, always 1), the trace and the commit stamp.
func EncodeV2IngestResult(e *V2Enc, id uint32, sum IngestSummary, trace string, csn uint64) []byte {
	e.u8(V2OpIngestBatch)
	e.u8(1)
	e.uvarint(uint64(sum.Batches))
	e.uvarint(uint64(sum.Rows))
	e.uvarint(uint64(sum.ElapsedUS))
	e.f64(sum.RowsPerSec)
	e.rawBytes([]byte(trace))
	e.uvarint(csn)
	return e.Frame(V2OpResult, 0, id)
}

// v2DigestsFormat opens an er_digests reply body. A reply that carried its
// batch as a length-prefixed JSON blob opened with the blob's non-zero
// length instead, so each side tells the two apart by this byte.
const v2DigestsFormat = 0

// ErrDigestsFormat is the error an er_digests reply in another format
// decodes to: the peer runs a build whose digest exchange is not this one.
var ErrDigestsFormat = errors.New("wire2: er_digests reply in an unknown format (router and shards must run one build)")

// EncodeV2DigestsResult answers er_digests with the batch:
//
//	u8 format (0), uvarint ents, uvarint matches, u8 blocking mode,
//	uvarint n, n × (source, key, uvarint nt, nt tokens,
//	                uvarint na, na × (name, text)),
//	uvarint m, m × (source, key, source, key)
//
// where every string is an intern index.
func EncodeV2DigestsResult(e *V2Enc, id uint32, b *er.DigestBatch) []byte {
	e.u8(V2OpERDigests)
	e.u8(v2DigestsFormat)
	e.uvarint(uint64(b.Ents))
	e.uvarint(uint64(b.Matches))
	e.u8(byte(b.Settings.Blocking))
	e.uvarint(uint64(len(b.Digests)))
	for i := range b.Digests {
		dg := &b.Digests[i]
		e.str(dg.Source)
		e.str(dg.Key)
		e.uvarint(uint64(len(dg.Tokens)))
		for _, t := range dg.Tokens {
			e.str(t)
		}
		e.uvarint(uint64(len(dg.Attrs)))
		for _, at := range dg.Attrs {
			e.str(at.Name)
			e.str(at.Text)
		}
	}
	e.uvarint(uint64(len(b.Merges)))
	for _, m := range b.Merges {
		e.str(m[0].Source)
		e.str(m[0].Key)
		e.str(m[1].Source)
		e.str(m[1].Key)
	}
	return e.Frame(V2OpResult, 0, id)
}

// digests decodes an er_digests reply body. The tokens of every digest
// share one slab and the attributes another, each digest holding a
// full-slice window of them; every string is a substring of the frame's
// intern table. Counts are checked against the bytes left before anything
// is made.
func (d *v2Dec) digests() (*er.DigestBatch, error) {
	format, err := d.u8()
	if err != nil {
		return nil, err
	}
	if format != v2DigestsFormat {
		return nil, fmt.Errorf("%w: format byte 0x%02x", ErrDigestsFormat, format)
	}
	b := &er.DigestBatch{}
	if b.Ents, err = d.count(); err != nil {
		return nil, err
	}
	if b.Matches, err = d.count(); err != nil {
		return nil, err
	}
	mode, err := d.u8()
	if err != nil {
		return nil, err
	}
	if mode > byte(er.BlockingBoth) {
		return nil, fmt.Errorf("wire2: unknown blocking mode %d", mode)
	}
	b.Settings.Blocking = er.BlockingMode(mode)

	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	ntok, nattr, err := d.slabSizes(n)
	if err != nil {
		return nil, err
	}
	toks, attrs := make([]string, ntok), make(er.Attrs, nattr)
	if n > 0 {
		b.Digests = make([]er.Digest, n)
	}
	for i := range b.Digests {
		dg := &b.Digests[i]
		if dg.Source, err = d.str(); err != nil {
			return nil, err
		}
		if dg.Key, err = d.str(); err != nil {
			return nil, err
		}
		nt, _ := d.uvarint() // slabSizes read the counts already
		if nt > 0 {
			dg.Tokens, toks = toks[:nt:nt], toks[nt:]
			for j := range dg.Tokens {
				if dg.Tokens[j], err = d.str(); err != nil {
					return nil, err
				}
			}
		}
		na, _ := d.uvarint()
		if na > 0 {
			dg.Attrs, attrs = attrs[:na:na], attrs[na:]
			for j := range dg.Attrs {
				if dg.Attrs[j].Name, err = d.str(); err != nil {
					return nil, err
				}
				if dg.Attrs[j].Text, err = d.str(); err != nil {
					return nil, err
				}
			}
		}
	}

	m, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if m > uint64(len(d.b))/4 {
		return nil, errV2Truncated
	}
	if m > 0 {
		b.Merges = make([][2]er.RefKey, m)
	}
	for i := range b.Merges {
		for j := range b.Merges[i] {
			ref := &b.Merges[i][j]
			if ref.Source, err = d.str(); err != nil {
				return nil, err
			}
			if ref.Key, err = d.str(); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

// slabSizes walks the n digests ahead of d without moving it and returns
// how many tokens and attributes they hold. Every digest costs at least
// four bytes, so a count the frame cannot hold fails the walk.
func (d *v2Dec) slabSizes(n uint64) (ntok, nattr int, err error) {
	w := *d
	for i := uint64(0); i < n; i++ {
		if err := w.skip(2); err != nil { // source, key
			return 0, 0, err
		}
		nt, err := w.uvarint()
		if err != nil {
			return 0, 0, err
		}
		if err := w.skip(nt); err != nil {
			return 0, 0, err
		}
		na, err := w.uvarint()
		if err != nil {
			return 0, 0, err
		}
		if na > uint64(len(w.b))/2 {
			return 0, 0, errV2Truncated
		}
		if err := w.skip(2 * na); err != nil {
			return 0, 0, err
		}
		ntok += int(nt)
		nattr += int(na)
	}
	return ntok, nattr, nil
}

// skip reads past k uvarints; k beyond the bytes left is truncation.
func (d *v2Dec) skip(k uint64) error {
	if k > uint64(len(d.b)) {
		return errV2Truncated
	}
	for ; k > 0; k-- {
		if _, err := d.uvarint(); err != nil {
			return err
		}
	}
	return nil
}

// count reads a uvarint that must fit an int.
func (d *v2Dec) count() (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt {
		return 0, fmt.Errorf("wire2: %d out of range", v)
	}
	return int(v), nil
}

// DecodeV2Result parses any V2OpResult payload.
func DecodeV2Result(payload []byte) (*V2Result, error) {
	var b V2ReadBuf
	res := new(V2Result)
	if err := b.DecodeResult(payload, res); err != nil {
		return nil, err
	}
	return res, nil
}

// DecodeResult parses any V2OpResult payload into res, which it resets
// first: a reader decodes every result of a call it reuses into the one
// V2Result.
func (b *V2ReadBuf) DecodeResult(payload []byte, res *V2Result) error {
	*res = V2Result{}
	d, err := b.dec(payload)
	if err != nil {
		return err
	}
	defer b.done(&d)
	return d.result(res)
}

func (d *v2Dec) result(res *V2Result) error {
	kind, err := d.u8()
	if err != nil {
		return err
	}
	res.Kind = kind
	switch kind {
	case V2OpPing:
		if res.CSN, err = d.uvarint(); err != nil {
			return err
		}
		return nil
	case V2OpQuery:
		n, err := d.uvarint()
		if err != nil {
			return err
		}
		if n > v2MaxCols {
			return fmt.Errorf("wire2: column count %d out of bounds", n)
		}
		res.Columns = make([]string, n)
		for i := range res.Columns {
			if res.Columns[i], err = d.str(); err != nil {
				return err
			}
		}
		has, err := d.info(&res.info)
		if err != nil {
			return err
		}
		if has {
			res.Info = &res.info
		}
		return nil
	case V2OpIngestBatch:
		has, err := d.u8()
		if err != nil {
			return err
		}
		if has == 0 {
			return errors.New("wire2: ingest_batch result without summary")
		}
		b, err := d.uvarint()
		if err != nil {
			return err
		}
		r, err := d.uvarint()
		if err != nil {
			return err
		}
		us, err := d.uvarint()
		if err != nil {
			return err
		}
		rps, err := d.f64()
		if err != nil {
			return err
		}
		res.Ingest = &IngestSummary{Batches: int(b), Rows: int(r), ElapsedUS: int64(us), RowsPerSec: rps}
		tb, err := d.view()
		if err != nil {
			return err
		}
		res.Trace = string(tb)
		// The commit stamp is required: a result that lost it must not
		// read as stamp 0, which would leave a session's read-your-writes
		// mark behind its own write.
		if res.CSN, err = d.uvarint(); err != nil {
			return err
		}
		return nil
	case V2OpERDigests:
		if res.Digests, err = d.digests(); err != nil {
			return err
		}
		return nil
	}
	return fmt.Errorf("wire2: unknown result kind 0x%02x", kind)
}
