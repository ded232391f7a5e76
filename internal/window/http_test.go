package window_test

// Query-endpoint tests: range grammar, JSON shape, and the status-code
// contract (400 parse errors, 404 empty windows, 410 evicted windows).

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"cocosketch/internal/telemetry"
	"cocosketch/internal/trace"
	"cocosketch/internal/window"
)

func TestParseRange(t *testing.T) {
	cases := []struct {
		in   string
		want window.RangeSpec
		ok   bool
	}{
		{"", window.RangeSpec{Whole: true}, true},
		{"*", window.RangeSpec{Whole: true}, true},
		{"3:7", window.RangeSpec{Range: window.Range{From: 3, To: 7}}, true},
		{"3:", window.RangeSpec{Range: window.Range{From: 3, To: window.Open}}, true},
		{":7", window.RangeSpec{Range: window.Range{From: 0, To: 7}}, true},
		{"last:4", window.RangeSpec{LastN: 4}, true},
		{"0:18446744073709551615", window.RangeSpec{Range: window.Range{From: 0, To: window.Open}}, true},
		{"7:3", window.RangeSpec{}, false},
		{"3:3", window.RangeSpec{}, false},
		{"last:0", window.RangeSpec{}, false},
		{"last:-1", window.RangeSpec{}, false},
		{"last:99999999999999", window.RangeSpec{}, false},
		{"a:b", window.RangeSpec{}, false},
		{"3", window.RangeSpec{}, false},
		{"3:7:9", window.RangeSpec{}, false},
		{"-1:4", window.RangeSpec{}, false},
		{"+1:4", window.RangeSpec{}, false},
		{" 3:7", window.RangeSpec{}, false},
	}
	for _, c := range cases {
		got, err := window.ParseRange(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseRange(%q): err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseRange(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseRangeRoundTrip(t *testing.T) {
	for _, in := range []string{"*", "3:7", "3:", ":7", "last:4"} {
		sp, err := window.ParseRange(in)
		if err != nil {
			t.Fatalf("ParseRange(%q): %v", in, err)
		}
		again, err := window.ParseRange(sp.String())
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", sp.String(), in, err)
		}
		if again != sp {
			t.Fatalf("round trip of %q: %+v != %+v", in, again, sp)
		}
	}
}

// servedRing seals a few deterministic epochs and returns the test
// server over the query endpoint.
func servedRing(t *testing.T) (*window.Ring, *httptest.Server) {
	t.Helper()
	tr := trace.CAIDALike(12_000, 43)
	epochs := epochSketches(testConfig, tr, 6)
	r := window.NewRing(4, testConfig) // epochs 0,1 evicted after 6 seals
	for e := 0; e < 6; e++ {
		if err := r.Seal(uint64(e), epochs[e].Clone()); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(window.Handler(r))
	t.Cleanup(srv.Close)
	return r, srv
}

func get(t *testing.T, srv *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

const sqlSrc = "SELECT+SrcIP,+SUM(Size)+FROM+table+GROUP+BY+SrcIP"

func TestQueryEndpoint(t *testing.T) {
	r, srv := servedRing(t)

	resp, body := get(t, srv, "/query?sql="+sqlSrc+"&range=2:5&limit=3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var qr window.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if qr.From != 2 || qr.To != 5 || qr.Mask != "SrcIP" {
		t.Fatalf("response header = %+v, want [2,5) SrcIP", qr)
	}
	if len(qr.Rows) != 3 {
		t.Fatalf("rows = %d, want limit 3", len(qr.Rows))
	}
	if qr.Rows[0].Size < qr.Rows[1].Size {
		t.Fatal("rows not size-descending")
	}

	// The JSON answer must agree with the native API.
	native, err := r.SQL("SELECT SrcIP, SUM(Size) FROM table GROUP BY SrcIP", window.Range{From: 2, To: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range qr.Rows {
		if row.Size != native[i].Size {
			t.Fatalf("row %d: JSON size %d != native %d", i, row.Size, native[i].Size)
		}
	}

	// Omitted range means "whole retained ring" — it must keep working
	// after eviction (epochs 0 and 1 are gone here) by resolving to the
	// retained span, not 410ing.
	resp, body = get(t, srv, "/query?sql="+sqlSrc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default range status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.From != 2 || qr.To != 6 {
		t.Fatalf("default range resolved to [%d, %d), want retained [2, 6)", qr.From, qr.To)
	}

	// last:N resolves to the newest epochs.
	resp, body = get(t, srv, "/query?sql="+sqlSrc+"&range=last:2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("last:2 status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.From != 4 || qr.To != 6 {
		t.Fatalf("last:2 resolved to [%d, %d), want [4, 6)", qr.From, qr.To)
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	_, srv := servedRing(t)
	cases := []struct {
		path string
		code int
	}{
		{"/query?sql=" + sqlSrc + "&range=0:2", http.StatusGone},               // evicted
		{"/query?sql=" + sqlSrc + "&range=40:50", http.StatusNotFound},         // nothing sealed there
		{"/query?sql=" + sqlSrc + "&range=zap", http.StatusBadRequest},         // bad range
		{"/query?sql=" + sqlSrc + "&limit=-1", http.StatusBadRequest},          // bad limit
		{"/query?sql=" + url.QueryEscape("DROP TABLE"), http.StatusBadRequest}, // bad sql
		{"/query", http.StatusBadRequest},                                      // missing sql
		{"/nope", http.StatusNotFound},
	}
	for _, c := range cases {
		resp, body := get(t, srv, c.path)
		if resp.StatusCode != c.code {
			t.Errorf("%s: status %d, want %d (%s)", c.path, resp.StatusCode, c.code, body)
		}
	}

	// Non-GET is rejected.
	resp, err := http.Post(srv.URL+"/query", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status %d, want 405", resp.StatusCode)
	}
}

func TestEpochsEndpoint(t *testing.T) {
	_, srv := servedRing(t)
	resp, body := get(t, srv, "/epochs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var er window.EpochsResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if er.From != 2 || er.To != 6 || !er.Evicted || er.EvictedThrough != 1 {
		t.Fatalf("epochs = %+v, want [2,6) evicted through 1", er)
	}
	if len(er.Epochs) != 4 || er.Epochs[0] != 2 || er.Epochs[3] != 5 {
		t.Fatalf("epoch list = %v, want [2 3 4 5]", er.Epochs)
	}
}

// TestServe exercises the ":0" listener helper end to end.
func TestServe(t *testing.T) {
	tr := trace.CAIDALike(6_000, 47)
	epochs := epochSketches(testConfig, tr, 2)
	r := window.NewRing(2, testConfig)
	for e := 0; e < 2; e++ {
		if err := r.Seal(uint64(e), epochs[e].Clone()); err != nil {
			t.Fatal(err)
		}
	}
	addr, err := window.Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/epochs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// TestServeDropsSlowHeaders sends half a request line and stalls: the
// query endpoint must close the connection once the header timeout
// passes.
func TestServeDropsSlowHeaders(t *testing.T) {
	t.Parallel()
	addr, err := window.Serve("127.0.0.1:0", window.NewRing(1, testConfig))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("GET /epo")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(telemetry.ReadHeaderTimeout + 5*time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection not closed by the server: %v", err)
	}
	if waited := time.Since(start); waited < telemetry.ReadHeaderTimeout/2 {
		t.Fatalf("closed after %v, before the header timeout", waited)
	}
}
