package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The smoke test runs every workload at a tiny size, traced and
// untraced, and checks that every named metric is printed with its unit
// and lands in the JSON line. The negative control corrupts one answer
// per correctness check and expects the run to fail.
//
//	cd perfbench && go test .

// workloadMetrics are the workload-specific metrics a workload prints beside
// the gated set (only in its text report).
var workloadMetrics = map[string][]string{
	"ingest-min64":    {"ingest_mpps", "ingest_cpu_ns_per_pkt", "report_bytes_per_epoch", "fail_ratio"},
	"report-fanin":    {"reports_per_s", "report_bytes_per_epoch", "fail_ratio"},
	"query-dashboard": {"query_sustained_qps", "loadgen.lag_ms_p99", "fail_ratio"},
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func runTiny(t *testing.T, extra ...string) (int, string, result) {
	t.Helper()
	args := append([]string{"--seed", "3", "--seconds", "1", "--scale", "0.02", "--spans-dir", t.TempDir()}, extra...)
	var out, errOut bytes.Buffer
	code := runMain(args, &out, &errOut)
	text := out.String()
	lines := strings.Split(strings.TrimSpace(text), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not the JSON result: %v\nstdout:\n%s\nstderr:\n%s", args, err, text, errOut.String())
	}
	return code, text, res
}

// printed reports whether the text report has "name value unit".
func printed(text, name, unit string) bool {
	re := regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(name) + `\s+\S+\s+` + regexp.QuoteMeta(unit) + `$`)
	return re.MatchString(text)
}

func TestSmokeEveryMetricPrinted(t *testing.T) {
	for _, w := range workloadNames() {
		for _, traced := range []string{"0", "1"} {
			t.Run(w+"/trace"+traced, func(t *testing.T) {
				code, text, res := runTiny(t, "--workload", w, "--trace", traced)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, correct %v, %d of %d failed\n%s", code, res.Correct, res.Failed, res.Attempted, text)
				}
				gated := endToEnd
				if traced == "1" {
					gated = perLayer
				}
				if len(res.Metrics) != len(gated) {
					t.Errorf("JSON has %d metrics, want %d", len(res.Metrics), len(gated))
				}
				for _, m := range gated {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("JSON metric %s: got %+v, want unit %s", m.name, got, m.unit)
					}
					if !printed(text, m.name, m.unit) {
						t.Errorf("metric %s [%s] not printed", m.name, m.unit)
					}
				}
				if traced == "0" {
					for _, name := range workloadMetrics[w] {
						if !strings.Contains(text, "  "+name+" ") {
							t.Errorf("workload metric %s not printed", name)
						}
					}
				}
			})
		}
	}
}

func TestNegativeControlFails(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			code, text, res := runTiny(t, "--workload", w, "--trace", "0", "--corrupt")
			if code == 0 || res.Correct || res.Failed == 0 {
				t.Fatalf("corrupted answers passed: exit %d, correct %v, failed %d\n%s", code, res.Correct, res.Failed, text)
			}
			m := regexp.MustCompile(`(?m)^\s+fail_ratio\s+(\S+)\s+1$`).FindStringSubmatch(text)
			if m == nil {
				t.Fatalf("fail_ratio not printed:\n%s", text)
			}
			if v, err := strconv.ParseFloat(m[1], 64); err != nil || v <= 0 {
				t.Errorf("fail_ratio %s, want > 0", m[1])
			}
		})
	}
}

// TestBenchmarkJSONMatches pins BENCHMARK.json's metric lists to the
// ones this harness reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricName) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, harness %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s [%s], harness %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads: BENCHMARK.json %v, harness %v", names, workloadNames())
	}
}
