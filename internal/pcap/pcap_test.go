package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"

	"cocosketch/internal/flowkey"
	"cocosketch/internal/packet"
)

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, LinkTypeEthernet, 65535)
	if err != nil {
		t.Fatal(err)
	}
	keys := []flowkey.FiveTuple{
		{SrcIP: [4]byte{1, 2, 3, 4}, DstIP: [4]byte{5, 6, 7, 8}, SrcPort: 10, DstPort: 20, Proto: packet.ProtoTCP},
		{SrcIP: [4]byte{9, 9, 9, 9}, DstIP: [4]byte{8, 8, 8, 8}, SrcPort: 53, DstPort: 53, Proto: packet.ProtoUDP},
	}
	base := time.Unix(1700000000, 123000)
	var frames [][]byte
	for i, k := range keys {
		f := packet.Build(k, packet.BuildOptions{PayloadLen: 10 * (i + 1)})
		frames = append(frames, f)
		if err := w.WritePacket(base.Add(time.Duration(i)*time.Millisecond), f, len(f)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkType() != LinkTypeEthernet {
		t.Fatalf("link type = %d", r.LinkType())
	}
	for i := 0; ; i++ {
		hdr, data, err := r.Next()
		if err == io.EOF {
			if i != len(keys) {
				t.Fatalf("read %d records, want %d", i, len(keys))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, frames[i]) {
			t.Fatalf("record %d bytes differ", i)
		}
		if hdr.CaptureLength != len(frames[i]) || hdr.OriginalLength != len(frames[i]) {
			t.Fatalf("record %d lengths: %+v", i, hdr)
		}
		wantTS := base.Add(time.Duration(i) * time.Millisecond)
		if !hdr.Timestamp.Equal(wantTS) {
			t.Fatalf("record %d ts %v, want %v", i, hdr.Timestamp, wantTS)
		}
		k, ok := packet.ExtractFiveTuple(data)
		if !ok {
			t.Fatalf("record %d: key extraction failed", i)
		}
		if k != keys[i] {
			t.Fatalf("record %d key %v, want %v", i, k, keys[i])
		}
	}
}

func TestSnapLenTruncation(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, LinkTypeEthernet, 60)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 200)
	if err := w.WritePacket(time.Unix(0, 0), data, 200); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	hdr, rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != 60 || hdr.CaptureLength != 60 || hdr.OriginalLength != 200 {
		t.Fatalf("truncation wrong: %d bytes, hdr %+v", len(rec), hdr)
	}
}

func TestBigEndianAndNanos(t *testing.T) {
	// Hand-build a big-endian nanosecond file with one empty record.
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	binary.BigEndian.PutUint32(hdr[0:4], MagicNanoseconds)
	binary.BigEndian.PutUint16(hdr[4:6], 2)
	binary.BigEndian.PutUint32(hdr[16:20], 65535)
	binary.BigEndian.PutUint32(hdr[20:24], LinkTypeRaw)
	buf.Write(hdr)
	rec := make([]byte, 16)
	binary.BigEndian.PutUint32(rec[0:4], 100)
	binary.BigEndian.PutUint32(rec[4:8], 999) // 999 ns
	binary.BigEndian.PutUint32(rec[8:12], 0)
	binary.BigEndian.PutUint32(rec[12:16], 0)
	buf.Write(rec)

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkType() != LinkTypeRaw {
		t.Fatalf("link type = %d", r.LinkType())
	}
	h, _, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	want := time.Unix(100, 999)
	if !h.Timestamp.Equal(want) {
		t.Fatalf("ts = %v, want %v", h.Timestamp, want)
	}
}

func TestBadMagic(t *testing.T) {
	buf := bytes.NewReader(make([]byte, 24))
	if _, err := NewReader(buf); err == nil {
		t.Fatal("zero magic accepted")
	}
}

func TestShortGlobalHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("3-byte file accepted")
	}
}

// readers returns the two record-read paths under test, each wrapped
// to report only the error: Next, and ReadInto into a buffer that can
// hold a MaxSnapLen record.
func readers() map[string]func(*Reader) error {
	buf := make([]byte, MaxSnapLen)
	return map[string]func(*Reader) error{
		"Next": func(r *Reader) error {
			_, _, err := r.Next()
			return err
		},
		"ReadInto": func(r *Reader) error {
			_, _, err := r.ReadInto(buf)
			return err
		},
	}
}

// oneRecord encodes a capture holding a single record of n bytes
// (byte i of the body is i mod 251).
func oneRecord(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, LinkTypeEthernet, MaxSnapLen)
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, n)
	for i := range body {
		body[i] = byte(i % 251)
	}
	if err := w.WritePacket(time.Unix(0, 0), body, n); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTruncatedRecordBody cuts a stream inside a record header and at
// several points inside a record body, for a small record and for one
// longer than bufio's default buffer: both read paths must return an
// error, not panic and not report a clean EOF.
func TestTruncatedRecordBody(t *testing.T) {
	for _, size := range []int{50, 8192} {
		full := oneRecord(t, size)
		for _, cut := range []int{24 + 7, 24 + 16, 24 + 16 + 1, len(full) - 10, len(full) - 1} {
			for name, read := range readers() {
				r, err := NewReader(bytes.NewReader(full[:cut]))
				if err != nil {
					t.Fatal(err)
				}
				if err := read(r); err == nil || errors.Is(err, io.EOF) {
					t.Fatalf("%s: %d-byte record cut at %d: err = %v, want a read error", name, size, cut, err)
				}
			}
		}
	}
}

// TestMaxSnapLenRecord reads a record of exactly MaxSnapLen bytes, the
// largest the reader's buffer must hold in one view, through both read
// paths, and checks the stream ends cleanly after it.
func TestMaxSnapLenRecord(t *testing.T) {
	data := oneRecord(t, MaxSnapLen)
	want := data[24+16:]
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	hdr, got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if hdr.CaptureLength != MaxSnapLen || !bytes.Equal(got, want) {
		t.Fatalf("Next: %d bytes (hdr %+v), want the %d-byte body", len(got), hdr, MaxSnapLen)
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("Next after the record: %v, want io.EOF", err)
	}
	r, err = NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, MaxSnapLen)
	if _, n, err := r.ReadInto(buf); err != nil || n != MaxSnapLen || !bytes.Equal(buf, want) {
		t.Fatalf("ReadInto: n=%d err=%v, want the %d-byte body", n, err, MaxSnapLen)
	}
	if _, _, err := r.ReadInto(buf); err != io.EOF {
		t.Fatalf("ReadInto after the record: %v, want io.EOF", err)
	}
}

// TestOversizeCaptureLengthRejected checks a record one byte over
// MaxSnapLen is refused on both read paths, whether or not its body
// is present.
func TestOversizeCaptureLengthRejected(t *testing.T) {
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:4], MagicMicroseconds)
	binary.LittleEndian.PutUint16(hdr[4:6], 2)
	buf.Write(hdr)
	rec := make([]byte, 16)
	binary.LittleEndian.PutUint32(rec[8:12], MaxSnapLen+1)
	buf.Write(rec)
	headerOnly := append([]byte(nil), buf.Bytes()...)
	buf.Write(make([]byte, MaxSnapLen+1))
	for _, data := range [][]byte{headerOnly, buf.Bytes()} {
		for name, read := range readers() {
			r, err := NewReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if err := read(r); err == nil || errors.Is(err, io.EOF) {
				t.Fatalf("%s: oversize record: err = %v, want a length error", name, err)
			}
		}
	}
}

func TestUnsupportedVersion(t *testing.T) {
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:4], MagicMicroseconds)
	binary.LittleEndian.PutUint16(hdr[4:6], 3)
	if _, err := NewReader(bytes.NewReader(hdr)); err == nil {
		t.Fatal("version 3 accepted")
	}
}
