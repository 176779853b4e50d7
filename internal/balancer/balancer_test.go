package balancer

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cjdbc/internal/backend"
	"cjdbc/internal/sqlengine"
	"cjdbc/internal/sqlparser"
)

func mkBackends(t *testing.T, n int, weights ...int) []*backend.Backend {
	t.Helper()
	out := make([]*backend.Backend, n)
	for i := range out {
		w := 1
		if i < len(weights) {
			w = weights[i]
		}
		e := sqlengine.New(fmt.Sprintf("db%d", i))
		b := backend.New(backend.Config{
			Name:   fmt.Sprintf("db%d", i),
			Driver: &backend.EngineDriver{Engine: e},
			Weight: w,
		})
		b.Enable()
		t.Cleanup(b.Close)
		out[i] = b
	}
	return out
}

func TestRoundRobinCycles(t *testing.T) {
	bs := mkBackends(t, 3)
	rr := &RoundRobin{}
	counts := map[string]int{}
	for i := 0; i < 9; i++ {
		b, err := rr.Choose(bs)
		if err != nil {
			t.Fatal(err)
		}
		counts[b.Name()]++
	}
	for _, b := range bs {
		if counts[b.Name()] != 3 {
			t.Errorf("backend %s chosen %d times, want 3", b.Name(), counts[b.Name()])
		}
	}
}

func TestRoundRobinEmpty(t *testing.T) {
	rr := &RoundRobin{}
	if _, err := rr.Choose(nil); !errors.Is(err, ErrNoBackend) {
		t.Fatalf("empty: %v", err)
	}
}

func TestWeightedRoundRobinProportional(t *testing.T) {
	bs := mkBackends(t, 2, 3, 1)
	w := &WeightedRoundRobin{}
	counts := map[string]int{}
	for i := 0; i < 40; i++ {
		b, err := w.Choose(bs)
		if err != nil {
			t.Fatal(err)
		}
		counts[b.Name()]++
	}
	if counts["db0"] != 30 || counts["db1"] != 10 {
		t.Errorf("weighted distribution: %v", counts)
	}
}

func TestLeastPendingPrefersIdle(t *testing.T) {
	bs := mkBackends(t, 3)
	lp := &LeastPending{}
	// All idle: ties broken round-robin, every backend eventually used.
	seen := map[string]bool{}
	for i := 0; i < 6; i++ {
		b, _ := lp.Choose(bs)
		seen[b.Name()] = true
	}
	if len(seen) != 3 {
		t.Errorf("ties not spread: %v", seen)
	}
}

func TestBalancerFactory(t *testing.T) {
	for _, name := range []string{"", "rr", "round-robin", "wrr", "lprf", "least-pending-requests-first"} {
		if _, err := New(name); err != nil {
			t.Errorf("New(%q): %v", name, err)
		}
	}
	if _, err := New("quantum"); err == nil {
		t.Error("unknown balancer accepted")
	}
}

// TestFullReplicationRouting pins the nil placement's contract: full
// replication is a nil *PartialReplication, and every method the controller
// calls without a nil check answers "every table on every backend".
func TestFullReplicationRouting(t *testing.T) {
	bs := mkBackends(t, 3)
	var f *PartialReplication
	// Every backend enabled: the routing sets are the given slice itself, so
	// a full-replication read allocates nothing to route.
	if got := f.ReadCandidates([]string{"any"}, bs); len(got) != 3 || &got[0] != &bs[0] {
		t.Errorf("read candidates = %v, want the given slice", names(got))
	}
	if got := f.WriteTargets([]string{"any"}, bs); len(got) != 3 || &got[0] != &bs[0] {
		t.Errorf("write targets = %v, want the given slice", names(got))
	}
	if !f.Hosted("any", "db1") {
		t.Error("full replication must host every table everywhere")
	}
	if got := f.Hosts("any"); got != nil {
		t.Errorf("hosts = %v, want nil (meaning all)", got)
	}
	if got := f.Tables(); got != nil {
		t.Errorf("tables = %v, want nil", got)
	}
	f.NoteCreate("any", []string{"db0"})
	f.NoteDrop("any")
	bs[1].Disable()
	if got := f.ReadCandidates(nil, bs); len(got) != 2 || got[0].Name() != "db0" || got[1].Name() != "db2" {
		t.Errorf("read candidates with db1 disabled = %v", names(got))
	}
	if got := f.WriteTargets(nil, bs); len(got) != 2 || got[0].Name() != "db0" || got[1].Name() != "db2" {
		t.Errorf("write targets with db1 disabled = %v", names(got))
	}
}

func TestPartialReplicationReads(t *testing.T) {
	bs := mkBackends(t, 3)
	p := NewPartialReplication(map[string][]string{
		"item":       {"db0", "db1", "db2"},
		"order_line": {"db0", "db1"},
		"customer":   {"db2"},
	})
	// Query touching item+order_line can run on db0/db1 only.
	got := p.ReadCandidates([]string{"item", "order_line"}, bs)
	if len(got) != 2 || got[0].Name() != "db0" || got[1].Name() != "db1" {
		t.Errorf("candidates: %v", names(got))
	}
	// Query touching customer only on db2.
	got = p.ReadCandidates([]string{"customer"}, bs)
	if len(got) != 1 || got[0].Name() != "db2" {
		t.Errorf("candidates: %v", names(got))
	}
	// Join spanning disjoint partitions: impossible.
	got = p.ReadCandidates([]string{"order_line", "customer"}, bs)
	if len(got) != 0 {
		t.Errorf("impossible join candidates: %v", names(got))
	}
	// Unknown table: no candidates.
	got = p.ReadCandidates([]string{"nope"}, bs)
	if len(got) != 0 {
		t.Errorf("unknown table candidates: %v", names(got))
	}
	// Disabled hosts are skipped.
	bs[0].Disable()
	got = p.ReadCandidates([]string{"item", "order_line"}, bs)
	if len(got) != 1 || got[0].Name() != "db1" {
		t.Errorf("after disable: %v", names(got))
	}
}

func TestPartialReplicationWrites(t *testing.T) {
	bs := mkBackends(t, 3)
	p := NewPartialReplication(map[string][]string{
		"order_line": {"db0", "db1"},
		"item":       {"db0", "db1", "db2"},
	})
	got := p.WriteTargets([]string{"order_line"}, bs)
	if len(got) != 2 {
		t.Errorf("write targets: %v", names(got))
	}
	// Writes to an unknown table (fresh CREATE TABLE) go everywhere.
	got = p.WriteTargets([]string{"brand_new"}, bs)
	if len(got) != 3 {
		t.Errorf("fresh create targets: %v", names(got))
	}
	// CREATE TEMP TABLE AS SELECT over order_line: restricted to its hosts
	// (the Figure 10 best-seller optimization).
	got = p.WriteTargets([]string{"besttmp", "order_line"}, bs)
	if len(got) != 2 {
		t.Errorf("temp table targets: %v", names(got))
	}
}

func TestPartialReplicationDynamicSchema(t *testing.T) {
	bs := mkBackends(t, 2)
	p := NewPartialReplication(map[string][]string{"a": {"db0"}})
	p.NoteCreate("b", []string{"db1"})
	if got := p.Hosts("b"); len(got) != 1 || got[0] != "db1" {
		t.Errorf("hosts after create: %v", got)
	}
	if got := p.ReadCandidates([]string{"b"}, bs); len(got) != 1 || got[0].Name() != "db1" {
		t.Errorf("read after create: %v", names(got))
	}
	p.NoteDrop("b")
	if got := p.ReadCandidates([]string{"b"}, bs); len(got) != 0 {
		t.Errorf("read after drop: %v", names(got))
	}
	if ts := p.Tables(); len(ts) != 1 || ts[0] != "a" {
		t.Errorf("tables = %v", ts)
	}
}

func names(bs []*backend.Backend) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Name()
	}
	return out
}

// gateDriver's connections answer every statement once gate closes, so a
// read on its backend stays pending until then.
type gateDriver struct{ gate chan struct{} }

func (d gateDriver) Open() (backend.Conn, error) { return gateConn(d), nil }

type gateConn struct{ gate chan struct{} }

func (c gateConn) Exec(sqlparser.Statement, string) (*backend.Result, error) {
	<-c.gate
	return &backend.Result{}, nil
}
func (gateConn) Begin() error    { return nil }
func (gateConn) Commit() error   { return nil }
func (gateConn) Rollback() error { return nil }
func (gateConn) Close() error    { return nil }

// TestLeastPendingTiesAllocateNothing: the candidate with the fewest
// pending requests always wins; candidates tied at the fewest take turns
// evenly, and no other candidate is chosen; choosing allocates nothing.
func TestLeastPendingTiesAllocateNothing(t *testing.T) {
	gate := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(gate)
	pending := []int{1, 0, 2, 0, 0} // db0 … db4
	bs := make([]*backend.Backend, len(pending))
	for i, p := range pending {
		b := backend.New(backend.Config{Name: fmt.Sprintf("db%d", i), Driver: gateDriver{gate}})
		b.Enable()
		t.Cleanup(b.Close)
		bs[i] = b
		for j := 0; j < p; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := b.Read(0, nil, "SELECT 1"); err != nil {
					t.Error(err)
				}
			}()
		}
		for deadline := time.Now().Add(5 * time.Second); b.Pending() != p; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d pending, want %d", b.Name(), b.Pending(), p)
			}
		}
	}

	lp := &LeastPending{}
	for _, tc := range []struct {
		cands []int // indexes into bs
		want  []int // the tied lowest
	}{
		{[]int{0, 2}, []int{0}},
		{[]int{2, 0, 1}, []int{1}},
		{[]int{0, 1, 3}, []int{1, 3}},
		{[]int{3, 0, 2, 4}, []int{3, 4}},
		{[]int{1, 2, 3, 4}, []int{1, 3, 4}},
		{[]int{4, 3, 1}, []int{4, 3, 1}},
	} {
		cands := make([]*backend.Backend, len(tc.cands))
		for i, c := range tc.cands {
			cands[i] = bs[c]
		}
		const rounds = 20
		counts := map[string]int{}
		for i := 0; i < rounds*len(tc.want); i++ {
			b, err := lp.Choose(cands)
			if err != nil {
				t.Fatal(err)
			}
			counts[b.Name()]++
		}
		want := map[string]int{}
		for _, w := range tc.want {
			want[bs[w].Name()] = rounds
		}
		if fmt.Sprint(counts) != fmt.Sprint(want) {
			t.Errorf("candidates %v: chose %v, want %v", tc.cands, counts, want)
		}
		if allocs := testing.AllocsPerRun(100, func() { _, _ = lp.Choose(cands) }); allocs != 0 {
			t.Errorf("candidates %v: Choose allocates %.1f objects", tc.cands, allocs)
		}
	}
}
