package sketch

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// The CSNP container wraps every algorithm snapshot (see docs/SNAPSHOT.md):
//
//	offset        size  field
//	0             4     magic "CSNP"
//	4             2     format version (uint16 LE, currently 1)
//	6             1     algorithm name length A (1..255)
//	7             A     algorithm name (e.g. "caesar", "rcs")
//	7+A           8     payload length P (uint64 LE, <= MaxPayload)
//	15+A          P     payload (algorithm-defined sections, below)
//	15+A+P        4     CRC32 (IEEE, LE) over bytes [4, 15+A+P)
//
// The payload is a sequence of sections, each `tag[4] | length u64 | body`,
// read back in writing order. Sections keep substrate state (counter
// arrays, cache statistics, compression scales) separately framed so a
// decoder can reject a malformed region with a precise error instead of
// misinterpreting bytes downstream.

var snapshotMagic = [4]byte{'C', 'S', 'N', 'P'}

// Version is the current snapshot format version. Bump it on any change to
// the container or section layouts; readers reject other versions.
const Version uint16 = 1

// MaxPayload bounds the declared payload length. ReadSnapshot allocates
// only as payload bytes arrive, so a corrupt length alone cannot drive a
// large allocation.
const MaxPayload = 1 << 31

// payloadChunk is the payload buffer ReadSnapshot reserves before reading;
// the buffer grows from there only as payload bytes arrive.
const payloadChunk = 64 << 10

// Sentinel errors for the failure modes callers distinguish.
var (
	// ErrBadMagic reports input that is not a CSNP snapshot at all.
	ErrBadMagic = errors.New("sketch: bad magic, not a CSNP snapshot")
	// ErrVersion reports a CSNP snapshot from an unsupported format version.
	ErrVersion = errors.New("sketch: unsupported snapshot version")
	// ErrChecksum reports a snapshot whose CRC32 does not match its content.
	ErrChecksum = errors.New("sketch: snapshot checksum mismatch")
	// ErrAlgorithm reports a snapshot written by a different algorithm than
	// the reader expected.
	ErrAlgorithm = errors.New("sketch: snapshot algorithm mismatch")
)

// WriteSnapshot frames an algorithm payload in the CSNP container and
// writes it to w, returning the bytes written.
func WriteSnapshot(w io.Writer, algo string, payload []byte) (int64, error) {
	if len(algo) == 0 || len(algo) > 255 {
		return 0, fmt.Errorf("sketch: algorithm name length %d outside [1,255]", len(algo))
	}
	if len(payload) > MaxPayload {
		return 0, fmt.Errorf("sketch: payload %d bytes exceeds MaxPayload", len(payload))
	}
	// Assemble the checksummed region (version..payload) once so the CRC is
	// computed over exactly the bytes written.
	head := make([]byte, 0, 2+1+len(algo)+8)
	head = binary.LittleEndian.AppendUint16(head, Version)
	head = append(head, byte(len(algo)))
	head = append(head, algo...)
	head = binary.LittleEndian.AppendUint64(head, uint64(len(payload)))

	crc := crc32.NewIEEE()
	crc.Write(head) // hash.Hash.Write never fails
	crc.Write(payload)

	var n int64
	for _, chunk := range [][]byte{snapshotMagic[:], head, payload,
		binary.LittleEndian.AppendUint32(nil, crc.Sum32())} {
		m, err := w.Write(chunk)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// ReadSnapshot reads one CSNP container from r, verifies version, algorithm
// and checksum, and returns the payload and the bytes consumed. wantAlgo ""
// accepts any algorithm.
func ReadSnapshot(r io.Reader, wantAlgo string) (payload []byte, n int64, err error) {
	br := bufio.NewReader(r)
	crc := crc32.NewIEEE()

	read := func(dst []byte) error {
		m, err := io.ReadFull(br, dst)
		n += int64(m)
		return err
	}

	var magic [4]byte
	if err := read(magic[:]); err != nil {
		return nil, n, fmt.Errorf("sketch: reading magic: %w", err)
	}
	if magic != snapshotMagic {
		return nil, n, ErrBadMagic
	}

	var fixed [3]byte // version u16 + algo length u8
	if err := read(fixed[:]); err != nil {
		return nil, n, fmt.Errorf("sketch: reading header: %w", err)
	}
	crc.Write(fixed[:])
	version := binary.LittleEndian.Uint16(fixed[:2])
	if version != Version {
		return nil, n, fmt.Errorf("%w: got %d, support %d", ErrVersion, version, Version)
	}
	algoLen := int(fixed[2])
	if algoLen == 0 {
		return nil, n, fmt.Errorf("sketch: empty algorithm name")
	}
	algo := make([]byte, algoLen)
	if err := read(algo); err != nil {
		return nil, n, fmt.Errorf("sketch: reading algorithm name: %w", err)
	}
	crc.Write(algo)
	if wantAlgo != "" && string(algo) != wantAlgo {
		return nil, n, fmt.Errorf("%w: snapshot is %q, reader expects %q", ErrAlgorithm, algo, wantAlgo)
	}

	var lenBuf [8]byte
	if err := read(lenBuf[:]); err != nil {
		return nil, n, fmt.Errorf("sketch: reading payload length: %w", err)
	}
	crc.Write(lenBuf[:])
	payloadLen := binary.LittleEndian.Uint64(lenBuf[:])
	if payloadLen > MaxPayload {
		return nil, n, fmt.Errorf("sketch: implausible payload length %d", payloadLen)
	}
	// The payload buffer grows with the bytes that actually arrive, so a
	// torn or forged length field cannot force a MaxPayload allocation.
	var body bytes.Buffer
	body.Grow(int(min(payloadLen, payloadChunk)))
	m, err := io.CopyN(&body, br, int64(payloadLen))
	n += m
	if err != nil {
		if err == io.EOF && m > 0 {
			err = io.ErrUnexpectedEOF // io.ReadFull's convention for a partial read
		}
		return nil, n, fmt.Errorf("sketch: reading %d-byte payload: %w", payloadLen, err)
	}
	payload = body.Bytes()
	crc.Write(payload)

	var sumBuf [4]byte
	if err := read(sumBuf[:]); err != nil {
		return nil, n, fmt.Errorf("sketch: reading checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(sumBuf[:]); got != crc.Sum32() {
		return nil, n, fmt.Errorf("%w: stored %08x, computed %08x", ErrChecksum, got, crc.Sum32())
	}
	return payload, n, nil
}

// --- Payload encoding --------------------------------------------------------

// Encoder builds a snapshot payload: fixed-width little-endian primitives
// grouped into tagged, length-prefixed sections.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U64 appends a uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// Int appends a non-negative int as a uint64. Negative values are a
// programming error (the repository's counters never go negative).
func (e *Encoder) Int(v int) {
	if v < 0 {
		panic(fmt.Sprintf("sketch: Encoder.Int(%d) negative", v))
	}
	e.U64(uint64(v))
}

// F64 appends a float64 by its IEEE-754 bit pattern, so values round-trip
// bit-exactly (including the NaN payloads validation rejects on decode).
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends a bool as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U64s appends a length-prefixed []uint64.
func (e *Encoder) U64s(vs []uint64) {
	e.Int(len(vs))
	for _, v := range vs {
		e.U64(v)
	}
}

// U8s appends a length-prefixed []byte.
func (e *Encoder) U8s(vs []uint8) {
	e.Int(len(vs))
	e.buf = append(e.buf, vs...)
}

// Section appends a tagged, length-prefixed section whose body is produced
// by body. The tag must be exactly 4 bytes.
func (e *Encoder) Section(tag string, body func(*Encoder)) {
	if len(tag) != 4 {
		panic(fmt.Sprintf("sketch: section tag %q must be 4 bytes", tag))
	}
	e.buf = append(e.buf, tag...)
	lenAt := len(e.buf)
	e.buf = append(e.buf, make([]byte, 8)...) // reserve the length slot
	body(e)
	binary.LittleEndian.PutUint64(e.buf[lenAt:], uint64(len(e.buf)-lenAt-8))
}

// --- Payload decoding --------------------------------------------------------

// Decoder reads a payload written by Encoder. It latches the first error:
// after a failure every read returns a zero value, so decode functions can
// run straight-line and check Err once. It never panics on corrupt input.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder wraps a payload.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns how many payload bytes have not been consumed yet (0
// after an error). Decoders use it to probe for optional trailing sections
// added by later writers while staying readable by older payload layouts.
func (d *Decoder) Remaining() int {
	if d.err != nil {
		return 0
	}
	return len(d.b) - d.off
}

func (d *Decoder) failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("sketch: "+format, args...)
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b)-d.off {
		d.failf("truncated payload: need %d bytes at offset %d of %d", n, d.off, len(d.b))
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U64 reads a uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int reads a uint64 and rejects values that do not fit a non-negative int.
func (d *Decoder) Int() int {
	v := d.U64()
	if v > math.MaxInt64 {
		d.failf("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// F64 reads a float64 bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a bool, rejecting bytes other than 0 and 1.
func (d *Decoder) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.failf("invalid bool byte")
		return false
	}
}

// U64s reads a length-prefixed []uint64. The declared length is validated
// against the remaining bytes before allocating, so a corrupt prefix cannot
// drive a huge allocation.
func (d *Decoder) U64s() []uint64 {
	n := d.Int()
	if d.err != nil {
		return nil
	}
	if n > (len(d.b)-d.off)/8 {
		d.failf("slice length %d exceeds remaining payload", n)
		return nil
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = d.U64()
	}
	return vs
}

// U8s reads a length-prefixed []byte.
func (d *Decoder) U8s() []uint8 {
	n := d.Int()
	if d.err != nil {
		return nil
	}
	b := d.take(n)
	if b == nil {
		return nil
	}
	out := make([]uint8, n)
	copy(out, b)
	return out
}

// Section reads the next section, which must carry the given tag, and runs
// body over a sub-decoder scoped to its bytes. Trailing unread bytes inside
// the section are ignored (room for forward-compatible additions); a body
// error propagates to the parent decoder.
func (d *Decoder) Section(tag string, body func(*Decoder)) {
	if len(tag) != 4 {
		panic(fmt.Sprintf("sketch: section tag %q must be 4 bytes", tag))
	}
	got := d.take(4)
	if got == nil {
		return
	}
	if string(got) != tag {
		d.failf("section tag %q where %q expected", got, tag)
		return
	}
	n := d.Int()
	if d.err != nil {
		return
	}
	b := d.take(n)
	if b == nil {
		return
	}
	sub := NewDecoder(b)
	body(sub)
	if sub.err != nil && d.err == nil {
		d.err = fmt.Errorf("section %q: %w", tag, sub.err)
	}
}
