package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cjdbc/bench/tpcw"
)

// The tests run every workload on tables two hundred rows long, so that a
// round is milliseconds and nothing here depends on how fast the machine is.
func TestMain(m *testing.M) {
	setDataSize(200, tpcw.Scale{Items: 60, Customers: 60, Authors: 15})
	runtime.GOMAXPROCS(nClients)
	os.Exit(m.Run())
}

type declared struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	var d declared
	if err := readJSON("../BENCHMARK.json", &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func defsOf(ms []declaredMetric) []metricDef {
	out := make([]metricDef, len(ms))
	for i, m := range ms {
		out[i] = metricDef{m.Name, m.Unit}
	}
	return out
}

func TestBenchmarkJSONDeclaresWhatTheProgramPrints(t *testing.T) {
	d := readDeclared(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s needs a one-line why", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames())
	}
	if got := defsOf(d.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program prints %v", got, endToEnd)
	}
	if got := defsOf(d.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program prints %v", got, perLayer)
	}
	for _, m := range d.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %s needs a direction and a bound in (0, 0.25]", m.Name)
		}
	}
	for _, m := range d.PerLayer {
		if m.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// printedNames parses "<workload> <metric> <value> <unit> ..." lines.
func printedNames(t *testing.T, out string) map[string][]string {
	t.Helper()
	names := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 {
			t.Fatalf("malformed output line %q", line)
		}
		names[f[0]] = append(names[f[0]], f[1])
	}
	return names
}

// The whole suite at a hundredth of the requests: every workload runs end to
// end and traced, every oracle holds, and the lines printed are exactly the
// declared names, for every workload. No number is checked.
func TestSuitePrintsEveryDeclaredNameAndNothingElse(t *testing.T) {
	d := readDeclared(t)
	var want []string
	for _, m := range append(append([]declaredMetric{}, d.EndToEnd...), d.PerLayer...) {
		want = append(want, m.Name)
	}
	restore := chdirTemp(t)
	defer restore()

	var stdout bytes.Buffer
	out := &resultsFile{Scale: 0.01, Workloads: map[string]*workloadResult{}}
	failed := suiteRun(&stdout, 7, 1, out)
	for name, wr := range out.Workloads {
		if wr.Failed != 0 {
			t.Errorf("%s: %d of %d failed: %v", name, wr.Failed, wr.Attempted, wr.Problems)
		}
	}
	if failed {
		t.Error("suiteRun reported a failure")
	}
	got := printedNames(t, stdout.String())
	for _, w := range workloadNames() {
		if !reflect.DeepEqual(got[w], want) {
			t.Errorf("%s printed %v, declared %v", w, got[w], want)
		}
		if _, err := os.Stat(outDir + "/trace-" + w + ".json"); err != nil {
			t.Errorf("no trace file for %s: %v", w, err)
		}
	}
	if len(got) != len(workloads) {
		t.Errorf("printed workloads %v", got)
	}
}

// The driver's contract: the last line is one JSON object with exactly four
// keys, and its metrics are the end-to-end names with --trace 0 and the
// per-layer names with --trace 1.
func TestDriverRunLastLineIsTheResultObject(t *testing.T) {
	restore := chdirTemp(t)
	defer restore()
	for _, traced := range []bool{false, true} {
		want := endToEnd
		if traced {
			want = perLayer
		}
		var stdout bytes.Buffer
		out := &resultsFile{Workloads: map[string]*workloadResult{}}
		if driverRun(&stdout, scaled(findWorkload("point_txn"), 0.05), 3, 0, traced, out) {
			t.Errorf("traced=%v: run failed: %v", traced, out.Workloads["point_txn"].Problems)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var last struct {
			Correct   *bool            `json:"correct"`
			Attempted *int64           `json:"attempted"`
			Failed    *int64           `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&last); err != nil {
			t.Fatalf("traced=%v: last line %q: %v", traced, lines[len(lines)-1], err)
		}
		if last.Correct == nil || !*last.Correct || last.Attempted == nil || *last.Attempted < 1 || last.Failed == nil || *last.Failed != 0 {
			t.Errorf("traced=%v: last line %s", traced, lines[len(lines)-1])
		}
		if len(last.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(last.Metrics), len(want))
		}
		for _, m := range want {
			if v, ok := last.Metrics[m.name]; !ok || v.Unit != m.unit {
				t.Errorf("traced=%v: metric %s missing or with unit %q", traced, m.name, v.Unit)
			}
		}
		if !traced {
			for _, m := range want {
				if last.Metrics[m.name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", m.name, last.Metrics[m.name].Value)
				}
			}
		}
	}
}

// scaled returns a copy of w with its op count multiplied.
func scaled(w *workload, f float64) *workload {
	c := *w
	c.ops = c.opsFor(f)
	return &c
}

// chdirTemp moves the test into a fresh directory, where bench/out lands.
func chdirTemp(t *testing.T) (restore func()) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	return func() { _ = os.Chdir(old) }
}
