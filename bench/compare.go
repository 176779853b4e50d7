package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkJSON is the part of BENCHMARK.json the comparison needs.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// compareFiles prints, per workload and end-to-end metric, both medians, how
// much worse b is than a as a share of a, and the metric's bound. A pair
// whose round-to-round spread on either side is wider than the bound is
// unresolved; a resolved pair worse by more than the bound is a violation, as
// is any failed request or check. Per-layer values follow, without verdict.
// It returns the process exit code: 1 when anything is violated.
func compareFiles(w io.Writer, pathA, pathB string) int {
	var a, b resultsFile
	var spec benchmarkJSON
	for path, v := range map[string]any{pathA: &a, pathB: &b, "BENCHMARK.json": &spec} {
		if err := readJSON(path, v); err != nil {
			fatal("%v", err)
		}
	}
	if a.Schema != resultsSchema || b.Schema != resultsSchema {
		fatal("results schema %d and %d, this program reads %d", a.Schema, b.Schema, resultsSchema)
	}
	var names []string
	for n := range a.Workloads {
		if b.Workloads[n] != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	violations := 0
	fmt.Fprintf(w, "%-22s %-32s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	for _, n := range names {
		wa, wb := a.Workloads[n], b.Workloads[n]
		for _, m := range spec.EndToEnd {
			sa, okA := wa.EndToEnd[m.Name]
			sb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB || sa.Median == 0 {
				continue
			}
			worse := (sb.Median - sa.Median) / sa.Median
			if m.Better == "higher" {
				worse = -worse
			}
			spread := func(s stat) float64 { return (s.Max - s.Min) / s.Median }
			verdict := "ok"
			switch {
			case spread(sa) > m.Bound || spread(sb) > m.Bound:
				verdict = fmt.Sprintf("unresolved (spread %.3f / %.3f)", spread(sa), spread(sb))
			case worse > m.Bound:
				verdict = "VIOLATION"
				violations++
			}
			fmt.Fprintf(w, "%-22s %-32s %14.4f %14.4f %+9.4f %7.3f  %s\n", n, m.Name, sa.Median, sb.Median, worse, m.Bound, verdict)
		}
		if wa.Failed != 0 || wb.Failed != 0 {
			fmt.Fprintf(w, "%-22s %-32s %14d %14d %9s %7d  VIOLATION\n", n, "failed", wa.Failed, wb.Failed, "", 0)
			violations++
		}
		for _, d := range perLayer {
			va, okA := wa.PerLayer[d.name]
			vb, okB := wb.PerLayer[d.name]
			if okA && okB && (va.Value != 0 || vb.Value != 0) {
				fmt.Fprintf(w, "%-22s %-32s %14.4f %14.4f %+9.4f\n", n, d.name, va.Value, vb.Value, ratio(vb.Value-va.Value, va.Value))
			}
		}
	}
	if violations > 0 {
		fmt.Fprintf(w, "%d violations\n", violations)
		return 1
	}
	return 0
}
