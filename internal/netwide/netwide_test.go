package netwide

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"testing/iotest"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/trace"
)

func sharedConfig() core.Config {
	return core.Config{Arrays: 2, BucketsPerArray: 4096, Seed: 77}
}

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Message{Type: MsgSketch, Epoch: 9, AgentID: 3, Payload: []byte("hello")}
	if err := WriteMessage(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.Epoch != in.Epoch || out.AgentID != in.AgentID ||
		!bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip: %+v", out)
	}
}

func TestMessageEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, Message{Type: MsgAck, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	out, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != MsgAck || len(out.Payload) != 0 {
		t.Fatalf("ack round trip: %+v", out)
	}
}

func TestMessageEOF(t *testing.T) {
	if _, err := ReadMessage(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("clean close error = %v, want io.EOF", err)
	}
}

func TestMessageTruncated(t *testing.T) {
	var buf bytes.Buffer
	_ = WriteMessage(&buf, Message{Type: MsgSketch, Payload: []byte("abcdef")})
	data := buf.Bytes()
	if _, err := ReadMessage(bytes.NewReader(data[:len(data)-2])); err == nil {
		t.Fatal("truncated payload read without error")
	}
	if _, err := ReadMessage(bytes.NewReader(data[:5])); err == nil {
		t.Fatal("truncated header read without error")
	}
}

func TestMessageOversize(t *testing.T) {
	var buf bytes.Buffer
	hdr := []byte{MsgSketch, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}
	buf.Write(hdr)
	if _, err := ReadMessage(&buf); err != ErrMessageTooLarge {
		t.Fatalf("oversize error = %v", err)
	}
}

// TestMessageDeclaredLengthNotPreallocated sends a header declaring
// MaxPayload and then closes: ReadMessage must fail without having
// allocated anything near the declared length.
func TestMessageDeclaredLengthNotPreallocated(t *testing.T) {
	hdr := []byte{MsgSketch, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(hdr[7:], MaxPayload)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadMessage(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want a wrapped io.EOF", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 2<<20 {
		t.Fatalf("allocated %d bytes for a payload that never arrived", alloc)
	}
}

// TestMessageLargePayload reads payloads past the exact-allocation
// size, delivered a few bytes at a time, and cut short.
func TestMessageLargePayload(t *testing.T) {
	for _, n := range []int{exactPayload, exactPayload + 1, 3*exactPayload + 17} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, Message{Type: MsgSketch, Epoch: 4, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		out, err := ReadMessage(iotest.HalfReader(bytes.NewReader(data)))
		if err != nil || out.Epoch != 4 || !bytes.Equal(out.Payload, payload) {
			t.Fatalf("n=%d: round trip failed: err %v, %d bytes", n, err, len(out.Payload))
		}
		for _, cut := range []int{11, 12, len(data) - 1} {
			if _, err := ReadMessage(bytes.NewReader(data[:cut])); !errors.Is(err, io.ErrUnexpectedEOF) && !(cut == 11 && errors.Is(err, io.EOF)) {
				t.Fatalf("n=%d cut at %d: err = %v", n, cut, err)
			}
		}
	}
}

// TestEndToEnd runs a collector and three agents over real TCP
// connections, replays a trace sliced across the agents, and checks
// that the network-wide partial-key view matches the whole trace.
func TestEndToEnd(t *testing.T) {
	cfg := sharedConfig()
	collector := NewCollector(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = collector.Serve(l) }()

	tr := trace.CAIDALike(90_000, 5)
	const agents = 3
	var wg sync.WaitGroup
	wg.Add(agents)
	for a := 0; a < agents; a++ {
		go func(id int) {
			defer wg.Done()
			agent := NewAgent(uint16(id), cfg)
			// Each agent observes a contiguous slice of the trace
			// (distinct vantage points seeing distinct traffic).
			n := len(tr.Packets) / agents
			for _, p := range tr.Packets[id*n : (id+1)*n] {
				agent.Observe(p.Key, 1)
			}
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			if err := agent.Report(conn); err != nil {
				t.Error(err)
			}
			if agent.Epoch() != 1 {
				t.Errorf("agent %d epoch = %d after report", id, agent.Epoch())
			}
		}(a)
	}
	wg.Wait()

	if got := collector.AgentsReported(0); got != agents {
		t.Fatalf("reported agents = %d, want %d", got, agents)
	}
	engine, ok := collector.Epoch(0)
	if !ok {
		t.Fatal("epoch 0 missing")
	}

	// Total conservation across the network.
	var total uint64
	for _, v := range engine.FullTable() {
		total += v
	}
	want := uint64(len(tr.Packets) / agents * agents)
	if total != want {
		t.Fatalf("network-wide total = %d, want %d", total, want)
	}

	// The globally largest source must top the network-wide SrcIP query.
	truth := map[flowkey.IPv4]uint64{}
	for _, p := range tr.Packets[:want] {
		truth[flowkey.IPv4(p.Key.SrcIP)]++
	}
	var topSrc flowkey.IPv4
	var topVal uint64
	for k, v := range truth {
		if v > topVal {
			topSrc, topVal = k, v
		}
	}
	m := flowkey.MaskFields(flowkey.FieldSrcIP)
	rows := engine.Top(m, 1)
	if len(rows) == 0 {
		t.Fatal("no rows from network-wide query")
	}
	if flowkey.IPv4(rows[0].Key.SrcIP) != topSrc {
		t.Fatalf("network-wide top source %v, want %v", flowkey.IPv4(rows[0].Key.SrcIP), topSrc)
	}
	est := float64(rows[0].Size)
	if est < float64(topVal)*0.8 || est > float64(topVal)*1.2 {
		t.Fatalf("top source estimate %v, true %d", est, topVal)
	}

	// Missing epoch is reported as absent.
	if _, ok := collector.Epoch(42); ok {
		t.Fatal("phantom epoch present")
	}
}

func TestDuplicateReportIgnored(t *testing.T) {
	cfg := core.Config{Arrays: 2, BucketsPerArray: 64, Seed: 3}
	collector := NewCollector(cfg)

	sk := core.NewBasic[flowkey.FiveTuple](cfg)
	sk.Insert(flowkey.FiveTuple{Proto: 6, SrcPort: 80}, 10)
	blob, _ := sk.MarshalBinary()
	msg := Message{Type: MsgSketch, Epoch: 0, AgentID: 1, Payload: blob}
	if err := collector.ingest(msg); err != nil {
		t.Fatal(err)
	}
	if err := collector.ingest(msg); err != nil { // retry after lost ack
		t.Fatal(err)
	}
	engine, _ := collector.Epoch(0)
	var total uint64
	for _, v := range engine.FullTable() {
		total += v
	}
	if total != 10 {
		t.Fatalf("duplicate report double counted: total = %d", total)
	}
}

func TestIngestRejectsIncompatibleSketch(t *testing.T) {
	collector := NewCollector(core.Config{Arrays: 2, BucketsPerArray: 64, Seed: 3})
	// First shard fixes the epoch geometry; a different geometry must
	// be rejected at merge.
	a := core.NewBasic[flowkey.FiveTuple](core.Config{Arrays: 2, BucketsPerArray: 64, Seed: 3})
	blobA, _ := a.MarshalBinary()
	if err := collector.ingest(Message{Type: MsgSketch, AgentID: 1, Payload: blobA}); err != nil {
		t.Fatal(err)
	}
	b := core.NewBasic[flowkey.FiveTuple](core.Config{Arrays: 2, BucketsPerArray: 128, Seed: 3})
	blobB, _ := b.MarshalBinary()
	if err := collector.ingest(Message{Type: MsgSketch, AgentID: 2, Payload: blobB}); err == nil {
		t.Fatal("incompatible shard accepted")
	}
}

func TestIngestRejectsGarbagePayload(t *testing.T) {
	collector := NewCollector(sharedConfig())
	if err := collector.ingest(Message{Type: MsgSketch, Payload: []byte("junk")}); err == nil {
		t.Fatal("garbage payload accepted")
	}
}
