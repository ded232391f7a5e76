package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/netwide"
	"cocosketch/internal/report"
	"cocosketch/internal/window"
)

// Shipped defaults of cmd/cocoagent and cmd/cococollector: -mem 500
// (KB), -seed 1, d = core.DefaultArrays.
const (
	memBytes   = 500 * 1024
	sketchSeed = 1
)

// defaultConfig is the sketch geometry every workload uses.
func defaultConfig() core.Config {
	return core.ConfigForMemory[flowkey.FiveTuple](core.DefaultArrays, memBytes, sketchSeed)
}

// collectorSide is a netwide.Collector serving agents on a loopback
// listener.
type collectorSide struct {
	Collector *netwide.Collector
	Addr      string

	ln       net.Listener
	served   chan struct{}
	handlers sync.WaitGroup
}

// startCollector serves c on 127.0.0.1 until Close.
func startCollector(c *netwide.Collector) (*collectorSide, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("collector listen: %w", err)
	}
	s := &collectorSide{Collector: c, Addr: ln.Addr().String(), ln: ln, served: make(chan struct{})}
	c.SetSpawn(func(f func()) {
		s.handlers.Add(1)
		go func() {
			defer s.handlers.Done()
			f()
		}()
	})
	go func() {
		defer close(s.served)
		_ = c.Serve(ln) // returns once Close closes the listener
	}()
	return s, nil
}

// Dial opens one agent connection.
func (s *collectorSide) Dial() (net.Conn, error) {
	conn, err := net.Dial("tcp", s.Addr)
	if err != nil {
		return nil, fmt.Errorf("dial collector: %w", err)
	}
	return conn, nil
}

// Close stops accepting and waits for every handler; the caller closes
// its agent connections first so the handlers see EOF.
func (s *collectorSide) Close() {
	s.ln.Close()
	<-s.served
	s.handlers.Wait()
}

// queryServer serves window.Handler over loopback HTTP. The ring it
// serves can be swapped (report-fanin starts a fresh ring per round),
// and in a traced phase a benchmark-owned wrapper records a span around
// each Handler(r).ServeHTTP call.
type queryServer struct {
	URL string

	handler atomic.Pointer[handlerBox]
	tracer  atomic.Pointer[Tracer]
	srv     *http.Server
	served  chan struct{}
}

type handlerBox struct{ h http.Handler }

// reqHeader carries the benchmark's request id to the server-side span.
const reqHeader = "X-Bench-Req"

func startQueryServer(ring *window.Ring) (*queryServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("query listen: %w", err)
	}
	q := &queryServer{URL: "http://" + ln.Addr().String(), served: make(chan struct{})}
	q.SetRing(ring)
	q.srv = &http.Server{Handler: q}
	go func() {
		defer close(q.served)
		_ = q.srv.Serve(ln) // returns http.ErrServerClosed after Close
	}()
	return q, nil
}

// SetRing points the endpoint at ring.
func (q *queryServer) SetRing(ring *window.Ring) {
	q.handler.Store(&handlerBox{window.Handler(ring)})
}

// SetTracer switches server-side spans on (non-nil) or off.
func (q *queryServer) SetTracer(t *Tracer) { q.tracer.Store(t) }

func (q *queryServer) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	h := q.handler.Load().h
	tr := q.tracer.Load()
	if tr == nil {
		h.ServeHTTP(w, req)
		return
	}
	id, _ := strconv.ParseUint(req.Header.Get(reqHeader), 10, 64)
	sp := tr.Start("http.handler", Span{}, id)
	h.ServeHTTP(w, req)
	tr.End(sp, 1)
}

// Close stops the server and waits for it.
func (q *queryServer) Close() {
	q.srv.Close()
	<-q.served
}

// queryClient is one load goroutine's HTTP client: at most one
// connection.
type queryClient struct {
	base string
	tr   *http.Transport
	c    *http.Client
}

func newQueryClient(base string) *queryClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &queryClient{base: base, tr: tr, c: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

// Close drops the client's idle connection.
func (c *queryClient) Close() { c.tr.CloseIdleConnections() }

// sqlFor is the restricted SQL statement grouping by mask m.
func sqlFor(m flowkey.Mask) string {
	return "SELECT " + m.String() + ", SUM(Size) FROM table GROUP BY " + m.String()
}

// queryURL is the /query request for mask m over range spec rg.
func (c *queryClient) queryURL(m flowkey.Mask, rg string, limit int) string {
	v := url.Values{}
	v.Set("sql", sqlFor(m))
	v.Set("range", rg)
	v.Set("limit", strconv.Itoa(limit))
	return c.base + "/query?" + v.Encode()
}

// Get issues one request and reads the whole body; it returns the body
// of a 200 response, or an error for a transport failure or any other
// status.
func (c *queryClient) Get(u string, reqID uint64) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(reqHeader, strconv.FormatUint(reqID, 10))
	resp, err := c.c.Do(req)
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("query body: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("query: status %d: %s", resp.StatusCode, body)
	}
	return body, nil
}

// decodeQuery parses a /query response body.
func decodeQuery(body []byte) (window.QueryResponse, error) {
	var qr window.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		return qr, fmt.Errorf("query response: %w", err)
	}
	return qr, nil
}

// tracedSink records a window.seal span around each Ring.Seal the
// collector's SealEpochInto makes.
type tracedSink struct {
	ring   *window.Ring
	tr     *Tracer
	parent Span
}

func (s *tracedSink) Seal(epoch uint64, sk *core.Basic[flowkey.FiveTuple]) error {
	sp := s.tr.Start("window.seal", s.parent, epoch)
	err := s.ring.Seal(epoch, sk)
	s.tr.End(sp, 1)
	return err
}

// sealEpoch seals a collector epoch into ring, as one netwide.seal_epoch
// span with the ring's window.seal as its child when traced.
func sealEpoch(tr *Tracer, c *netwide.Collector, ring *window.Ring, epoch uint32) error {
	if tr == nil {
		return c.SealEpochInto(ring, epoch)
	}
	sp := tr.Start("netwide.seal_epoch", Span{}, uint64(epoch))
	err := c.SealEpochInto(&tracedSink{ring: ring, tr: tr, parent: sp}, epoch)
	tr.End(sp, 1)
	return err
}

// tracedCodec wraps a report codec with report.seal/encode/decode spans.
// Each agent gets its own instance; Parent is the agent's current
// netwide.report span, set before each Agent.Report.
type tracedCodec struct {
	report.Codec[flowkey.FiveTuple]
	tr     *Tracer
	Parent Span
}

func (c *tracedCodec) Seal(fat *core.Basic[flowkey.FiveTuple]) (*core.Basic[flowkey.FiveTuple], error) {
	sp := c.tr.Start("report.seal", c.Parent, c.Parent.Req)
	st, err := c.Codec.Seal(fat)
	c.tr.End(sp, 1)
	return st, err
}

func (c *tracedCodec) NewEncoder() report.Encoder[flowkey.FiveTuple] {
	return &tracedEncoder{Encoder: c.Codec.NewEncoder(), c: c}
}

func (c *tracedCodec) NewDecoder() report.Decoder[flowkey.FiveTuple] {
	return &tracedDecoder{Decoder: c.Codec.NewDecoder(), tr: c.tr}
}

type tracedEncoder struct {
	report.Encoder[flowkey.FiveTuple]
	c *tracedCodec
}

func (e *tracedEncoder) Encode(epoch uint32, stage *core.Basic[flowkey.FiveTuple]) ([]byte, error) {
	sp := e.c.tr.Start("report.encode", e.c.Parent, uint64(epoch))
	blob, err := e.Encoder.Encode(epoch, stage)
	e.c.tr.End(sp, uint64(len(blob)))
	return blob, err
}

type tracedDecoder struct {
	report.Decoder[flowkey.FiveTuple]
	tr *Tracer
}

func (d *tracedDecoder) Decode(agent uint16, epoch uint32, payload []byte) (*core.Basic[flowkey.FiveTuple], error) {
	sp := d.tr.Start("report.decode", Span{}, uint64(epoch))
	st, err := d.Decoder.Decode(agent, epoch, payload)
	d.tr.End(sp, uint64(len(payload)))
	return st, err
}

// agentReport runs one Agent.Report as a netwide.report span whose
// children are the codec's seal and encode spans (codec is the agent's
// tracedCodec, nil when untraced).
func agentReport(tr *Tracer, a *netwide.Agent, codec *tracedCodec, conn net.Conn) error {
	if tr == nil {
		return a.Report(conn)
	}
	sp := tr.Start("netwide.report", Span{}, uint64(a.Epoch()))
	codec.Parent = sp
	err := a.Report(conn)
	tr.End(sp, 1)
	return err
}
