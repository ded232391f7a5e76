package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-list"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	for _, id := range []string{"fig8", "table2", "ext-entropy"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("list output missing %s", id)
		}
	}
}

func TestRunOneExperiment(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-run", "fig15b"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "fig15b") || !strings.Contains(out.String(), "Mpps(hardware)") {
		t.Fatalf("output missing table:\n%s", out.String())
	}
}

func TestRunCSV(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-run", "table2", "-format", "csv"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	first := strings.SplitN(out.String(), "\n", 2)[0]
	if first != "resource,Count-Min,R-HHH" {
		t.Fatalf("csv header = %q", first)
	}
}

func TestRunJSON(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	var out, errw bytes.Buffer
	if code := run([]string{"-run", "fig15b", "-json"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, benchJSONFile))
	if err != nil {
		t.Fatalf("missing %s: %v", benchJSONFile, err)
	}
	var bench benchJSON
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	// fig15b has 4 memory rows x 2 Mpps series (hardware, basic).
	if len(bench.Results) != 8 {
		t.Fatalf("got %d records, want 8:\n%s", len(bench.Results), data)
	}
	series := map[string]int{}
	for _, r := range bench.Results {
		if r.Experiment != "fig15b" {
			t.Errorf("record experiment = %q", r.Experiment)
		}
		if r.Mpps <= 0 {
			t.Errorf("non-positive Mpps in %+v", r)
		}
		if r.Labels["memoryMB"] == "" {
			t.Errorf("record missing memoryMB label: %+v", r)
		}
		series[r.Labels["series"]]++
	}
	if series["hardware"] != 4 || series["basic"] != 4 {
		t.Fatalf("series counts = %v, want 4 hardware + 4 basic", series)
	}
}

// TestRunJSONTelemetry checks the -json document carries the runtime
// telemetry digest: a multi-queue replay experiment must populate the
// burst-size quantiles.
func TestRunJSONTelemetry(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	var out, errw bytes.Buffer
	if code := run([]string{"-run", "ext-scaling", "-quick", "-workers", "2", "-json"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, benchJSONFile))
	if err != nil {
		t.Fatalf("missing %s: %v", benchJSONFile, err)
	}
	var bench benchJSON
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if bench.Telemetry == nil {
		t.Fatalf("no telemetry block in %s:\n%s", benchJSONFile, data)
	}
	if bench.Telemetry.BatchSizeP50 == 0 || bench.Telemetry.BatchSizeP99 < bench.Telemetry.BatchSizeP50 {
		t.Errorf("burst-size quantiles implausible: p50=%d p99=%d",
			bench.Telemetry.BatchSizeP50, bench.Telemetry.BatchSizeP99)
	}
}

func TestErrors(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{}, &out, &errw); code != 2 {
		t.Fatalf("missing -run: exit %d", code)
	}
	if code := run([]string{"-run", "nope"}, &out, &errw); code != 1 {
		t.Fatalf("unknown id: exit %d", code)
	}
	if code := run([]string{"-run", "table2", "-format", "xml"}, &out, &errw); code != 2 {
		t.Fatalf("bad format: exit %d", code)
	}
	if code := run([]string{"-bogus"}, &out, &errw); code != 2 {
		t.Fatalf("bad flag: exit %d", code)
	}
}
