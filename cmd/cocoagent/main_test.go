package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/netwide"
)

// startCollector runs an in-process collector on a loopback port and
// returns it with its address.
func startCollector(t *testing.T, memKB, d int, seed uint64) (*netwide.Collector, string) {
	t.Helper()
	cfg := core.ConfigForMemory[flowkey.FiveTuple](d, memKB*1024, seed)
	collector := netwide.NewCollector(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() { _ = collector.Serve(l) }()
	return collector, l.Addr().String()
}

// telemetryAddr extracts the bound address from run()'s
// "telemetry: listening on ADDR" stdout line.
func telemetryAddr(t *testing.T, stdout string) string {
	t.Helper()
	for _, line := range strings.Split(stdout, "\n") {
		if addr, ok := strings.CutPrefix(line, "telemetry: listening on "); ok {
			return addr
		}
	}
	t.Fatalf("no telemetry address in output:\n%s", stdout)
	return ""
}

// fetchVars GETs /debug/vars and decodes the flat JSON document.
func fetchVars(t *testing.T, addr string) map[string]any {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/vars", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	vars := map[string]any{}
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("decoding /debug/vars: %v\n%s", err, body)
	}
	return vars
}

// counter reads a counter value out of the decoded vars document.
func counter(t *testing.T, vars map[string]any, name string) uint64 {
	t.Helper()
	v, ok := vars[name].(float64)
	if !ok {
		t.Fatalf("var %q missing or not a number: %v", name, vars[name])
	}
	return uint64(v)
}

// TestRunTelemetryEndToEnd runs the agent binary in-process against a
// live collector with -telemetry enabled, then scrapes /debug/vars and
// checks the counters reflect the reported epochs. The telemetry
// listener outlives run() by design (it serves for the process
// lifetime), so the scrape happens after the agent completes.
func TestRunTelemetryEndToEnd(t *testing.T) {
	collector, addr := startCollector(t, 64, 2, 5)

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-id", "1", "-collector", addr,
		"-packets", "20000", "-epochs", "2",
		"-mem", "64", "-d", "2", "-seed", "5",
		"-telemetry", "127.0.0.1:0",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run = %d\nstderr: %s", code, stderr.String())
	}
	if got := collector.AgentsReported(0); got != 1 {
		t.Fatalf("collector saw %d agents for epoch 0", got)
	}

	vars := fetchVars(t, telemetryAddr(t, stdout.String()))
	if got := counter(t, vars, "netwide.reports_sent"); got != 2 {
		t.Errorf("netwide.reports_sent = %d, want 2", got)
	}
	if got := counter(t, vars, "netwide.observed"); got != 40000 {
		t.Errorf("netwide.observed = %d, want 40000", got)
	}
	outcomes := counter(t, vars, "core.matched") +
		counter(t, vars, "core.replaced") + counter(t, vars, "core.kept")
	if outcomes != 40000 {
		t.Errorf("sketch outcomes sum to %d, want 40000", outcomes)
	}
}

// TestRunTelemetryShardedWorkers checks the -workers path: the
// replay's burst histogram covers every record of the epoch, and the
// merged sketch lands in the epoch as one absorb carrying the whole
// trace's weight.
func TestRunTelemetryShardedWorkers(t *testing.T) {
	_, addr := startCollector(t, 64, 2, 5)

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-id", "2", "-collector", addr,
		"-packets", "20000", "-epochs", "1",
		"-mem", "64", "-d", "2", "-seed", "5",
		"-workers", "2", "-telemetry", "127.0.0.1:0",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run = %d\nstderr: %s", code, stderr.String())
	}

	vars := fetchVars(t, telemetryAddr(t, stdout.String()))
	if got := counter(t, vars, "netwide.observed"); got != 20000 {
		t.Errorf("netwide.observed = %d, want 20000", got)
	}
	h, ok := vars["ingest.batch_size"].(map[string]any)
	if !ok {
		t.Fatalf("ingest.batch_size missing or not a histogram: %v", vars["ingest.batch_size"])
	}
	if got, _ := h["sum"].(float64); got != 20000 {
		t.Errorf("ingest.batch_size sums to %v records, want 20000", h["sum"])
	}
	if got := counter(t, vars, "netwide.absorbs"); got != 1 {
		t.Errorf("netwide.absorbs = %d, want 1", got)
	}
}

// TestRunNoTelemetryFlag pins the default-off form: without -telemetry
// nothing about the run mentions a listener.
func TestRunNoTelemetryFlag(t *testing.T) {
	_, addr := startCollector(t, 64, 2, 5)
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-id", "3", "-collector", addr,
		"-packets", "5000", "-mem", "64", "-d", "2", "-seed", "5",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run = %d\nstderr: %s", code, stderr.String())
	}
	if strings.Contains(stdout.String(), "telemetry") {
		t.Fatalf("telemetry output without -telemetry:\n%s", stdout.String())
	}
}
