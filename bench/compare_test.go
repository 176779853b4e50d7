package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareFlagsViolationsAndLeavesWideSpreadsUnresolved(t *testing.T) {
	restore := chdirTemp(t)
	defer restore()
	spec := `{"end_to_end": [
		{"name": "throughput_rps", "unit": "1/s", "better": "higher", "bound": 0.1},
		{"name": "latency_p50_us", "unit": "us", "better": "lower", "bound": 0.1}]}`
	if err := os.WriteFile("BENCHMARK.json", []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	file := func(name string, rps, p50 stat) string {
		path := filepath.Join(t.TempDir(), name)
		err := writeJSON(path, &resultsFile{Schema: resultsSchema, Workloads: map[string]*workloadResult{
			"point_read": {EndToEnd: map[string]stat{"throughput_rps": rps, "latency_p50_us": p50}},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return path
	}
	tight := func(v float64) stat { return stat{Median: v, Min: v * 0.99, Max: v * 1.01} }
	wide := func(v float64) stat { return stat{Median: v, Min: v * 0.8, Max: v * 1.2} }

	base := file("a.json", tight(1000), tight(10))
	for _, c := range []struct {
		name string
		b    string
		want int
	}{
		{"same", file("same.json", tight(1000), tight(10)), 0},
		{"better", file("better.json", tight(1500), tight(7)), 0},
		{"within the bound", file("within.json", tight(950), tight(10.5)), 0},
		{"throughput down a fifth", file("rps.json", tight(800), tight(10)), 1},
		{"latency up a fifth", file("lat.json", tight(1000), tight(12)), 1},
		{"down a fifth but the rounds disagree by more", file("wide.json", wide(800), tight(10)), 0},
	} {
		var out bytes.Buffer
		if got := compareFiles(&out, base, c.b); got != c.want {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, got, c.want, out.String())
		}
		if c.name == "down a fifth but the rounds disagree by more" && !strings.Contains(out.String(), "unresolved") {
			t.Errorf("%s: not reported as unresolved\n%s", c.name, out.String())
		}
	}
}
