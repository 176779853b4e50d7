package experiments

import (
	"reflect"
	"testing"

	"cjdbc/internal/cache"
	"cjdbc/internal/workload/tpcw"
)

// figure accounts one figure, logs it, and fails on any failed interaction.
func figure(t *testing.T, mix tpcw.Mix) (full, partial map[int]float64) {
	t.Helper()
	rows, err := RunFigure(mix)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + FormatFigure(mix, rows))
	full, partial = make(map[int]float64), make(map[int]float64)
	for _, r := range rows {
		for _, p := range []Point{r.Full, r.Partial} {
			if p.Failed != 0 {
				t.Fatalf("%d nodes: %d of %d interactions failed", r.Nodes, p.Failed, p.Failed+p.Interactions)
			}
		}
		full[r.Nodes] = Speedup(rows[0].Full, r.Full)
		partial[r.Nodes] = Speedup(rows[0].Full, r.Partial)
	}
	return full, partial
}

// TestFigure10Browsing: with the best-seller temporary tables confined to
// two backends, partial replication outperforms full replication, whose
// broadcast temporary tables bend its curve sub-linear.
func TestFigure10Browsing(t *testing.T) {
	full, partial := figure(t, tpcw.Browsing)
	for _, n := range []int{4, 6} {
		if partial[n] <= full[n] {
			t.Errorf("%d nodes: partial %.2fx should beat full %.2fx on the browsing mix", n, partial[n], full[n])
		}
	}
	if full[6] > 5 {
		t.Errorf("full replication at 6 nodes is %.2fx; the broadcast best-seller tables should keep it sub-linear (≤ 5x)", full[6])
	}
}

// TestFigure11Shopping: the shopping mix scales with backends.
func TestFigure11Shopping(t *testing.T) {
	full, _ := figure(t, tpcw.Shopping)
	if full[4] < 2 {
		t.Errorf("full replication at 4 nodes is %.2fx one node, want ≥ 2x", full[4])
	}
}

// TestFigure12Ordering: even the write-heavy ordering mix gains from every
// added backend.
func TestFigure12Ordering(t *testing.T) {
	full, partial := figure(t, tpcw.Ordering)
	for i := 1; i < len(Nodes); i++ {
		lo, hi := Nodes[i-1], Nodes[i]
		if full[hi] <= full[lo] || partial[hi] <= partial[lo] {
			t.Errorf("%d → %d nodes: full %.2fx → %.2fx, partial %.2fx → %.2fx; want growth",
				lo, hi, full[lo], full[hi], partial[lo], partial[hi])
		}
	}
}

// TestTable1Cache: caching moves work off the database and onto the
// controller; the relaxed cache, which writes do not invalidate, moves the
// most. The coherent cache is also accounted at each invalidation
// granularity (§2.4.2), none of which may cost the database more than no
// cache.
func TestTable1Cache(t *testing.T) {
	run := func(config, mode string, g cache.Granularity) Table1Row {
		t.Helper()
		p, err := RunTable1(mode, g)
		if err != nil {
			t.Fatal(err)
		}
		if p.Failed != 0 {
			t.Fatalf("%s: %d of %d interactions failed", config, p.Failed, p.Failed+p.Interactions)
		}
		return Table1Row{Config: config, Point: p}
	}
	no := run(NoCache, NoCache, cache.GranTable)
	coh := run(Coherent, Coherent, cache.GranTable)
	rel := run(Relaxed, Relaxed, cache.GranTable)
	t.Log("\n" + FormatTable1("query result caching (Table 1)", []Table1Row{no, coh, rel}))
	if coh.BackendDemand() >= no.BackendDemand() {
		t.Errorf("coherent cache DB demand %.3f ≥ no cache %.3f", coh.BackendDemand(), no.BackendDemand())
	}
	if rel.BackendDemand() >= coh.BackendDemand() {
		t.Errorf("relaxed cache DB demand %.3f ≥ coherent %.3f", rel.BackendDemand(), coh.BackendDemand())
	}
	for _, c := range []Table1Row{coh, rel} {
		if c.CtrlDemand() <= no.CtrlDemand() {
			t.Errorf("%s controller demand %.3f ≤ no cache %.3f", c.Config, c.CtrlDemand(), no.CtrlDemand())
		}
	}

	gran := []Table1Row{no,
		run(cache.GranDatabase.String(), Coherent, cache.GranDatabase),
		{Config: cache.GranTable.String(), Point: coh.Point},
		run(cache.GranColumn.String(), Coherent, cache.GranColumn)}
	t.Log("\n" + FormatTable1("coherent cache by invalidation granularity", gran))
	for _, r := range gran[1:] {
		if r.BackendDemand() > no.BackendDemand() {
			t.Errorf("%s granularity DB demand %.3f > no cache %.3f", r.Config, r.BackendDemand(), no.BackendDemand())
		}
	}
}

// TestDemandIsDeterministic: the accounting run must not depend on timing.
// Any routing decision read from the clock or a racing gauge (least
// pending requests, early response "first") would show here as a
// different split of demand or operations between two identical runs.
func TestDemandIsDeterministic(t *testing.T) {
	a, err := RunTPCW(tpcw.Browsing, "partial", 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTPCW(tpcw.Browsing, "partial", 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Failed != 0 {
		t.Fatalf("%d interactions failed", a.Failed)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two identical runs differ:\n%+v\n%+v", a, b)
	}
}
