// Package pcap reads and writes classic libpcap capture files (the
// format of the CAIDA and MAWI trace archives the paper replays). Both
// byte orders and both timestamp resolutions (µs magic 0xa1b2c3d4, ns
// magic 0xa1b23c4d) are supported. Only the classic format is
// implemented — pcapng is out of scope.
package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Magic numbers of the classic pcap format.
const (
	MagicMicroseconds = 0xa1b2c3d4
	MagicNanoseconds  = 0xa1b23c4d
)

// LinkType values (subset).
const (
	LinkTypeEthernet = 1
	LinkTypeRaw      = 101
)

// ErrBadMagic reports an unrecognized file magic.
var ErrBadMagic = errors.New("pcap: bad magic number")

// MaxSnapLen bounds per-record capture lengths to keep a corrupt file
// from forcing a huge allocation.
const MaxSnapLen = 256 * 1024

// Header is the per-record metadata.
type Header struct {
	// Timestamp of capture.
	Timestamp time.Time
	// CaptureLength is the number of stored bytes.
	CaptureLength int
	// OriginalLength is the packet's length on the wire.
	OriginalLength int
}

// Reader decodes a pcap stream. Its bufio buffer holds one whole
// MaxSnapLen record, so Next returns every record body as a view into
// that buffer without copying it out or allocating.
type Reader struct {
	r         *bufio.Reader
	bigEndian bool  // the capture's byte order
	fracNanos int64 // ns per timestamp fraction unit: 1000 (µs magic) or 1 (ns magic)
	linkType  uint32
	snapLen   uint32
}

// recordHeaderLen is the size of a record header: ts_sec, ts_frac,
// incl_len, orig_len.
const recordHeaderLen = 16

// NewReader parses the global header and returns a reader positioned at
// the first record.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, recordHeaderLen+MaxSnapLen)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading global header: %w", err)
	}
	pr := &Reader{r: br}
	magicLE := binary.LittleEndian.Uint32(hdr[0:4])
	magicBE := binary.BigEndian.Uint32(hdr[0:4])
	switch {
	case magicLE == MagicMicroseconds:
		pr.fracNanos = 1000
	case magicLE == MagicNanoseconds:
		pr.fracNanos = 1
	case magicBE == MagicMicroseconds:
		pr.bigEndian, pr.fracNanos = true, 1000
	case magicBE == MagicNanoseconds:
		pr.bigEndian, pr.fracNanos = true, 1
	default:
		return nil, fmt.Errorf("%w: %#08x", ErrBadMagic, magicLE)
	}
	major := binary.LittleEndian.Uint16(hdr[4:6])
	if pr.bigEndian {
		major = binary.BigEndian.Uint16(hdr[4:6])
	}
	if major != 2 {
		return nil, fmt.Errorf("pcap: unsupported version %d", major)
	}
	pr.snapLen = pr.u32(hdr[16:20])
	pr.linkType = pr.u32(hdr[20:24])
	return pr, nil
}

// LinkType returns the capture's link type (LinkTypeEthernet for the
// traces this repo generates).
func (r *Reader) LinkType() uint32 { return r.linkType }

// SnapLen returns the capture's snapshot length.
func (r *Reader) SnapLen() uint32 { return r.snapLen }

// Next returns the next record. The data slice is a view into the
// reader's buffer, valid only until the next call to Next or ReadInto;
// copy it to retain. Its capacity ends at the record, so appending to
// it never overwrites the stream. io.EOF signals a clean end of file.
func (r *Reader) Next() (Header, []byte, error) {
	rec, err := r.r.Peek(recordHeaderLen)
	if err != nil {
		if err == io.EOF && len(rec) == 0 {
			return Header{}, nil, io.EOF
		}
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Header{}, nil, fmt.Errorf("pcap: reading record header: %w", err)
	}
	capLen := r.u32(rec[8:12])
	if capLen > MaxSnapLen {
		return Header{}, nil, fmt.Errorf("pcap: capture length %d exceeds limit", capLen)
	}
	end := recordHeaderLen + int(capLen)
	rec, err = r.r.Peek(end)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Header{}, nil, fmt.Errorf("pcap: reading record body: %w", err)
	}
	// Discard cannot fail here: the Peek above buffered end bytes.
	_, _ = r.r.Discard(end)
	return Header{
		Timestamp:      time.Unix(int64(r.u32(rec[0:4])), int64(r.u32(rec[4:8]))*r.fracNanos),
		CaptureLength:  int(capLen),
		OriginalLength: int(r.u32(rec[12:16])),
	}, rec[recordHeaderLen:end:end], nil
}

// u32 decodes a header field in the capture's byte order.
func (r *Reader) u32(b []byte) uint32 {
	if r.bigEndian {
		return binary.BigEndian.Uint32(b)
	}
	return binary.LittleEndian.Uint32(b)
}

// ReadInto copies the next record body into dst. A record longer than
// dst is truncated to len(dst) (NIC snapshot-length semantics); the
// returned Header keeps the record's full CaptureLength so callers can
// count truncations. The returned n is the number of bytes stored in
// dst. io.EOF signals a clean end of file.
func (r *Reader) ReadInto(dst []byte) (Header, int, error) {
	hdr, data, err := r.Next()
	if err != nil {
		return Header{}, 0, err
	}
	return hdr, copy(dst, data), nil
}

// Writer encodes a pcap stream (little endian, microsecond timestamps).
type Writer struct {
	w       *bufio.Writer
	snapLen uint32
	// rec is the record-header scratch; a stack array would escape
	// through bufio's Write and cost one allocation per record.
	rec [16]byte
}

// NewWriter creates a writer and emits the global header.
func NewWriter(w io.Writer, linkType uint32, snapLen uint32) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	pw := &Writer{w: bw, snapLen: snapLen}
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], MagicMicroseconds)
	binary.LittleEndian.PutUint16(hdr[4:6], 2) // major
	binary.LittleEndian.PutUint16(hdr[6:8], 4) // minor
	binary.LittleEndian.PutUint32(hdr[16:20], snapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], linkType)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: writing global header: %w", err)
	}
	return pw, nil
}

// WritePacket appends one record; data longer than the snap length is
// truncated, with the original length preserved in the record header.
func (w *Writer) WritePacket(ts time.Time, data []byte, originalLen int) error {
	capLen := len(data)
	if uint32(capLen) > w.snapLen {
		capLen = int(w.snapLen)
	}
	if originalLen < len(data) {
		originalLen = len(data)
	}
	rec := &w.rec
	binary.LittleEndian.PutUint32(rec[0:4], uint32(ts.Unix()))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(ts.Nanosecond()/1000))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(capLen))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(originalLen))
	if _, err := w.w.Write(rec[:]); err != nil {
		return fmt.Errorf("pcap: writing record header: %w", err)
	}
	if _, err := w.w.Write(data[:capLen]); err != nil {
		return fmt.Errorf("pcap: writing record body: %w", err)
	}
	return nil
}

// Flush drains buffered records to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }
