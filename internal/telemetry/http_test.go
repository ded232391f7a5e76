package telemetry

import (
	"flag"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "regenerate golden files")

// goldenRegistry builds a registry with deterministic contents, the
// fixture behind the /debug/vars golden file.
func goldenRegistry() *Registry {
	r := New()
	r.Counter("netwide.observed").Add(2048)
	r.Counter("ingest.skipped").Add(3)
	r.Gauge("netwide.spool_depth").Set(17)
	h := r.Histogram("ingest.batch_size")
	for i := 0; i < 31; i++ {
		h.Observe(64)
	}
	h.Observe(17)
	m := NewSketchMetrics(r, "core")
	m.Matched.Add(1500)
	m.Replaced.Add(400)
	m.Kept.Add(148)
	return r
}

// TestVarsGolden pins the /debug/vars JSON shape against
// testdata/vars.golden (regenerate with -update). The handler output
// is deterministic — sorted keys, fixed indentation — so the golden
// comparison is byte-exact.
func TestVarsGolden(t *testing.T) {
	srv := httptest.NewServer(NewMux(goldenRegistry()))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "vars.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if string(body) != string(want) {
		t.Errorf("/debug/vars drifted from %s (run with -update to accept):\ngot:\n%s\nwant:\n%s",
			golden, body, want)
	}
}

// TestVarsDeterministic double-checks two renders of the same registry
// are byte-identical (the property the golden test relies on).
func TestVarsDeterministic(t *testing.T) {
	r := goldenRegistry()
	rec1, rec2 := httptest.NewRecorder(), httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/debug/vars", nil)
	r.Handler().ServeHTTP(rec1, req)
	r.Handler().ServeHTTP(rec2, req)
	if rec1.Body.String() != rec2.Body.String() {
		t.Fatal("two renders of one registry differ")
	}
}

// TestPprofMounted checks the pprof index and a sample profile are
// reachable on the telemetry mux.
func TestPprofMounted(t *testing.T) {
	srv := httptest.NewServer(NewMux(goldenRegistry()))
	defer srv.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/goroutine?debug=1", "/debug/pprof/cmdline"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
	}
}

// TestServe exercises the background server: bind port 0, hit
// /debug/vars over real TCP, check a live counter appears.
func TestServe(t *testing.T) {
	r := New()
	r.Counter("probe").Add(9)
	addr, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr.String() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if want := `"probe": 9`; !contains(string(body), want) {
		t.Fatalf("response missing %q:\n%s", want, body)
	}
}

// contains avoids importing strings solely for one assertion.
func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestServeDropsSlowHeaders sends half a request line and stalls: the
// server must close the connection once ReadHeaderTimeout passes.
func TestServeDropsSlowHeaders(t *testing.T) {
	t.Parallel()
	addr, err := Serve("127.0.0.1:0", New())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("GET /debug/va")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(ReadHeaderTimeout + 5*time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection not closed by the server: %v", err)
	}
	if waited := time.Since(start); waited < ReadHeaderTimeout/2 {
		t.Fatalf("closed after %v, before the header timeout", waited)
	}
}
