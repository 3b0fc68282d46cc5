package sketch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
)

func mustWrite(t *testing.T, algo string, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := WriteSnapshot(&buf, algo, payload)
	if err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteSnapshot reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5, 6, 7}
	raw := mustWrite(t, "caesar", payload)
	got, n, err := ReadSnapshot(bytes.NewReader(raw), "caesar")
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if n != int64(len(raw)) {
		t.Fatalf("consumed %d of %d bytes", n, len(raw))
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload round trip: got %v want %v", got, payload)
	}
	// Any-algorithm mode accepts too.
	if _, _, err := ReadSnapshot(bytes.NewReader(raw), ""); err != nil {
		t.Fatalf("ReadSnapshot any-algo: %v", err)
	}
}

func TestSnapshotEmptyPayload(t *testing.T) {
	raw := mustWrite(t, "x", nil)
	got, _, err := ReadSnapshot(bytes.NewReader(raw), "x")
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("expected empty payload, got %d bytes", len(got))
	}
}

func TestSnapshotBadMagic(t *testing.T) {
	raw := mustWrite(t, "caesar", []byte{9})
	raw[0] = 'X'
	if _, _, err := ReadSnapshot(bytes.NewReader(raw), "caesar"); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestSnapshotVersionMismatchRejected(t *testing.T) {
	raw := mustWrite(t, "caesar", []byte{9, 9, 9})
	// Patch the version and re-seal the checksum so only the version is
	// wrong: the reader must reject on version, not checksum.
	binary.LittleEndian.PutUint16(raw[4:6], Version+1)
	resealChecksum(raw)
	_, _, err := ReadSnapshot(bytes.NewReader(raw), "caesar")
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

func TestSnapshotAlgorithmMismatchRejected(t *testing.T) {
	raw := mustWrite(t, "rcs", []byte{1})
	_, _, err := ReadSnapshot(bytes.NewReader(raw), "caesar")
	if !errors.Is(err, ErrAlgorithm) {
		t.Fatalf("err = %v, want ErrAlgorithm", err)
	}
	if !strings.Contains(err.Error(), "rcs") {
		t.Fatalf("mismatch error should name the stored algorithm: %v", err)
	}
}

func TestSnapshotChecksumMismatchRejected(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 64)
	raw := mustWrite(t, "caesar", payload)
	// Flip one payload bit everywhere in turn: every corruption must be
	// caught by the CRC (or an earlier structural check), never accepted.
	for i := 15 + len("caesar"); i < len(raw)-4; i++ {
		corrupt := bytes.Clone(raw)
		corrupt[i] ^= 0x01
		if _, _, err := ReadSnapshot(bytes.NewReader(corrupt), "caesar"); err == nil {
			t.Fatalf("corruption at byte %d accepted", i)
		}
	}
	// And a specifically checksum-typed rejection for a payload flip.
	corrupt := bytes.Clone(raw)
	corrupt[len(raw)-10] ^= 0xFF
	if _, _, err := ReadSnapshot(bytes.NewReader(corrupt), "caesar"); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

func TestSnapshotTruncationRejected(t *testing.T) {
	raw := mustWrite(t, "caesar", []byte{1, 2, 3, 4})
	for cut := 0; cut < len(raw); cut++ {
		if _, _, err := ReadSnapshot(bytes.NewReader(raw[:cut]), "caesar"); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
}

func TestSnapshotImplausiblePayloadLength(t *testing.T) {
	raw := mustWrite(t, "c", []byte{1})
	// The payload length field sits after magic(4)+version(2)+len(1)+algo(1).
	binary.LittleEndian.PutUint64(raw[8:16], MaxPayload+1)
	resealChecksum(raw)
	if _, _, err := ReadSnapshot(bytes.NewReader(raw), "c"); err == nil {
		t.Fatal("oversized payload length accepted")
	}
}

// TestSnapshotTornLengthBoundedAlloc feeds a header that declares a
// MaxPayload-byte payload followed by only 100 bytes: the reader must reject
// it while allocating in proportion to the bytes that arrived, not to the
// declared length.
func TestSnapshotTornLengthBoundedAlloc(t *testing.T) {
	raw := mustWrite(t, "c", make([]byte, 100))
	// The payload length field sits after magic(4)+version(2)+len(1)+algo(1).
	binary.LittleEndian.PutUint64(raw[8:16], MaxPayload)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadSnapshot(bytes.NewReader(raw), "c")
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want a wrapped io.ErrUnexpectedEOF", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("torn snapshot allocated %d bytes, want < 1 MiB", alloc)
	}
}

func TestWriteSnapshotRejectsBadAlgoName(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, "", nil); err == nil {
		t.Fatal("empty algorithm name accepted")
	}
	if _, err := WriteSnapshot(&buf, strings.Repeat("a", 256), nil); err == nil {
		t.Fatal("overlong algorithm name accepted")
	}
}

// resealChecksum recomputes the trailing CRC over a mutated container so
// tests can isolate non-checksum failure modes.
func resealChecksum(raw []byte) {
	sum := crc32IEEE(raw[4 : len(raw)-4])
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], sum)
}

func crc32IEEE(b []byte) uint32 {
	// Mirror of the production computation, kept separate so a bug in the
	// writer cannot silently cancel out in the tests.
	const poly = 0xedb88320
	crc := ^uint32(0)
	for _, x := range b {
		crc ^= uint32(x)
		for i := 0; i < 8; i++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ poly
			} else {
				crc >>= 1
			}
		}
	}
	return ^crc
}

func TestEncoderDecoderRoundTrip(t *testing.T) {
	var e Encoder
	e.Section("head", func(e *Encoder) {
		e.U8(7)
		e.U64(1<<63 + 5)
		e.Int(42)
		e.F64(3.14159)
		e.Bool(true)
		e.Bool(false)
	})
	e.Section("data", func(e *Encoder) {
		e.U64s([]uint64{1, 2, 3})
		e.U8s([]byte{9, 8})
		e.U64s(nil)
	})

	d := NewDecoder(e.Bytes())
	d.Section("head", func(d *Decoder) {
		if v := d.U8(); v != 7 {
			t.Errorf("U8 = %d", v)
		}
		if v := d.U64(); v != 1<<63+5 {
			t.Errorf("U64 = %d", v)
		}
		if v := d.Int(); v != 42 {
			t.Errorf("Int = %d", v)
		}
		if v := d.F64(); v != 3.14159 {
			t.Errorf("F64 = %v", v)
		}
		if !d.Bool() || d.Bool() {
			t.Error("Bool round trip failed")
		}
	})
	d.Section("data", func(d *Decoder) {
		if got := d.U64s(); len(got) != 3 || got[2] != 3 {
			t.Errorf("U64s = %v", got)
		}
		if got := d.U8s(); len(got) != 2 || got[0] != 9 {
			t.Errorf("U8s = %v", got)
		}
		if got := d.U64s(); len(got) != 0 {
			t.Errorf("empty U64s = %v", got)
		}
	})
	if err := d.Err(); err != nil {
		t.Fatalf("decode: %v", err)
	}
}

func TestDecoderErrorLatching(t *testing.T) {
	d := NewDecoder([]byte{1, 2}) // too short for a U64
	_ = d.U64()
	if d.Err() == nil {
		t.Fatal("truncated U64 accepted")
	}
	// Every later read is a calm zero-value no-op.
	if v := d.U64(); v != 0 {
		t.Fatalf("post-error U64 = %d", v)
	}
	if vs := d.U64s(); vs != nil {
		t.Fatalf("post-error U64s = %v", vs)
	}
}

func TestDecoderSectionTagMismatch(t *testing.T) {
	var e Encoder
	e.Section("aaaa", func(e *Encoder) { e.U8(1) })
	d := NewDecoder(e.Bytes())
	d.Section("bbbb", func(d *Decoder) { d.U8() })
	if d.Err() == nil {
		t.Fatal("tag mismatch accepted")
	}
}

func TestDecoderSliceLengthBomb(t *testing.T) {
	var e Encoder
	e.U64(1 << 40) // claims a petabyte of uint64s
	d := NewDecoder(e.Bytes())
	if vs := d.U64s(); vs != nil || d.Err() == nil {
		t.Fatal("implausible slice length accepted")
	}
}

func TestDecoderIntOverflow(t *testing.T) {
	var e Encoder
	e.U64(^uint64(0))
	d := NewDecoder(e.Bytes())
	if d.Int() != 0 || d.Err() == nil {
		t.Fatal("int overflow accepted")
	}
}
