package distributed

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cjdbc/internal/backend"
	"cjdbc/internal/controller"
	"cjdbc/internal/groupcomm"
	"cjdbc/internal/sqlengine"
)

// node is one controller hosting the shared vdb with one local backend.
type node struct {
	ctrl   *controller.Controller
	vdb    *controller.VirtualDatabase
	dist   *VDB
	engine *sqlengine.Engine
}

func mkCluster(t *testing.T, g *groupcomm.Group, n int) []*node {
	t.Helper()
	nodes := make([]*node, n)
	for i := 0; i < n; i++ {
		c := controller.New(fmt.Sprintf("ctrl%d", i), uint16(i+1))
		v, err := c.AddVirtualDatabase(controller.VDBConfig{Name: "app", ParallelTx: true})
		if err != nil {
			t.Fatal(err)
		}
		e := sqlengine.New(fmt.Sprintf("db%d", i))
		s := e.NewSession()
		s.ExecSQL("CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR)")
		s.Close()
		b := backend.New(backend.Config{Name: fmt.Sprintf("db%d", i), Driver: &backend.EngineDriver{Engine: e}})
		t.Cleanup(b.Close)
		if err := v.AddBackend(b); err != nil {
			t.Fatal(err)
		}
		d, err := Join(v, g, c.Name())
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = &node{ctrl: c, vdb: v, dist: d, engine: e}
	}
	return nodes
}

func count(t *testing.T, e *sqlengine.Engine, q string) int64 {
	t.Helper()
	s := e.NewSession()
	defer s.Close()
	res, err := s.ExecSQL(q)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows[0][0].I
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestWritePropagatesToAllControllers(t *testing.T) {
	g := groupcomm.NewGroup("app")
	nodes := mkCluster(t, g, 3)
	defer func() {
		for _, n := range nodes {
			n.dist.Leave()
		}
	}()

	s, err := nodes[0].vdb.NewSession("u", "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Exec("INSERT INTO t (id, v) VALUES (1, 'x')", nil); err != nil {
		t.Fatal(err)
	}
	for i, n := range nodes {
		n := n
		waitFor(t, func() bool { return count(t, n.engine, "SELECT COUNT(*) FROM t") == 1 },
			fmt.Sprintf("write on controller %d", i))
	}
}

func TestTransactionsAcrossControllers(t *testing.T) {
	g := groupcomm.NewGroup("app")
	nodes := mkCluster(t, g, 2)
	defer func() {
		for _, n := range nodes {
			n.dist.Leave()
		}
	}()

	s, _ := nodes[0].vdb.NewSession("u", "")
	defer s.Close()
	if _, err := s.Exec("BEGIN", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO t (id, v) VALUES (1, 'tx')", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("COMMIT", nil); err != nil {
		t.Fatal(err)
	}
	for i, n := range nodes {
		n := n
		waitFor(t, func() bool { return count(t, n.engine, "SELECT COUNT(*) FROM t") == 1 },
			fmt.Sprintf("commit on controller %d", i))
	}

	// Rollback leaves nothing anywhere.
	s.Exec("BEGIN", nil)
	s.Exec("INSERT INTO t (id, v) VALUES (2, 'gone')", nil)
	s.Exec("ROLLBACK", nil)
	time.Sleep(20 * time.Millisecond)
	for i, n := range nodes {
		if got := count(t, n.engine, "SELECT COUNT(*) FROM t"); got != 1 {
			t.Errorf("controller %d after rollback: %d rows", i, got)
		}
	}
}

func TestWritesFromBothControllersConverge(t *testing.T) {
	g := groupcomm.NewGroup("app")
	nodes := mkCluster(t, g, 2)
	defer func() {
		for _, n := range nodes {
			n.dist.Leave()
		}
	}()

	s0, _ := nodes[0].vdb.NewSession("u", "")
	s1, _ := nodes[1].vdb.NewSession("u", "")
	defer s0.Close()
	defer s1.Close()

	done := make(chan error, 2)
	go func() {
		for i := 0; i < 20; i++ {
			if _, err := s0.Exec(fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 'a')", i), nil); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	go func() {
		for i := 100; i < 120; i++ {
			if _, err := s1.Exec(fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 'b')", i), nil); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for i, n := range nodes {
		n := n
		waitFor(t, func() bool { return count(t, n.engine, "SELECT COUNT(*) FROM t") == 40 },
			fmt.Sprintf("convergence on controller %d", i))
	}
}

func TestReadsStayLocal(t *testing.T) {
	g := groupcomm.NewGroup("app")
	nodes := mkCluster(t, g, 2)
	defer func() {
		for _, n := range nodes {
			n.dist.Leave()
		}
	}()

	s, _ := nodes[0].vdb.NewSession("u", "")
	defer s.Close()
	s.Exec("INSERT INTO t (id, v) VALUES (1, 'x')", nil)
	waitFor(t, func() bool { return count(t, nodes[1].engine, "SELECT COUNT(*) FROM t") == 1 }, "propagation")

	remoteOps := nodes[1].vdb.Backends()[0].Ops()
	for i := 0; i < 5; i++ {
		if _, err := s.Exec("SELECT v FROM t WHERE id = 1", nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := nodes[1].vdb.Backends()[0].Ops(); got != remoteOps {
		t.Errorf("reads crossed controllers: ops %d -> %d", remoteOps, got)
	}
}

func TestSurvivorKeepsServingAfterPeerFailure(t *testing.T) {
	g := groupcomm.NewGroup("app")
	nodes := mkCluster(t, g, 2)
	defer nodes[0].dist.Leave()

	nodes[1].dist.Leave()

	s, _ := nodes[0].vdb.NewSession("u", "")
	defer s.Close()
	if _, err := s.Exec("INSERT INTO t (id, v) VALUES (5, 'alive')", nil); err != nil {
		t.Fatalf("write after peer failure: %v", err)
	}
	if got := count(t, nodes[0].engine, "SELECT COUNT(*) FROM t"); got != 1 {
		t.Errorf("rows = %d", got)
	}
}

// TestDisjointDeliveriesBypassStalledClass: a controller whose applier is
// stalled on a held class lock does not stall its peers — a later write
// submitted on the other controller is applied and answered there — and
// once the class is released the stalled controller catches up in delivery
// order.
func TestDisjointDeliveriesBypassStalledClass(t *testing.T) {
	g := groupcomm.NewGroup("app")
	nodes := mkCluster(t, g, 2)
	defer func() {
		for _, n := range nodes {
			n.dist.Leave()
		}
	}()

	// Both tables exist everywhere before the class lock is taken (DDL is a
	// barrier and must flush first).
	s, _ := nodes[0].vdb.NewSession("u", "")
	defer s.Close()
	if _, err := s.Exec("CREATE TABLE hot (id INTEGER PRIMARY KEY)", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("CREATE TABLE cold (id INTEGER PRIMARY KEY)", nil); err != nil {
		t.Fatal(err)
	}

	// Stall the "hot" conflict class on controller 0: the next delivery
	// touching hot blocks inside LockClass until the ticket is released.
	ticket := nodes[0].vdb.Scheduler().LockClass([]string{"hot"}, false)

	hotDone := make(chan error, 1)
	go func() {
		_, err := s.Exec("INSERT INTO hot (id) VALUES (1)", nil)
		hotDone <- err
	}()
	// The hot write must be stuck (its class is locked), not completed.
	select {
	case err := <-hotDone:
		ticket.Unlock()
		t.Fatalf("hot write completed under a held class lock (err=%v)", err)
	case <-time.After(20 * time.Millisecond):
	}

	// A later write submitted on controller 1 is applied and answered
	// there: only controller 0's applier is stalled.
	s2, _ := nodes[1].vdb.NewSession("u", "")
	defer s2.Close()
	coldDone := make(chan error, 1)
	go func() {
		_, err := s2.Exec("INSERT INTO cold (id) VALUES (1)", nil)
		coldDone <- err
	}()
	select {
	case err := <-coldDone:
		if err != nil {
			ticket.Unlock()
			t.Fatalf("cold write failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		ticket.Unlock()
		t.Fatal("write on the unstalled controller stuck behind its peer's held class lock")
	}

	// Releasing the class lets controller 0 catch up in delivery order: the
	// hot write finishes, and both rows land on both controllers.
	ticket.Unlock()
	if err := <-hotDone; err != nil {
		t.Fatalf("hot write after release: %v", err)
	}
	for i, n := range nodes {
		n := n
		waitFor(t, func() bool {
			return count(t, n.engine, "SELECT COUNT(*) FROM hot") == 1 &&
				count(t, n.engine, "SELECT COUNT(*) FROM cold") == 1
		}, fmt.Sprintf("convergence on controller %d", i))
	}
}

func TestSubmitAfterLeaveFails(t *testing.T) {
	g := groupcomm.NewGroup("app")
	nodes := mkCluster(t, g, 1)
	nodes[0].dist.Leave()
	// The vdb reverted to local mode: writes still work locally.
	s, _ := nodes[0].vdb.NewSession("u", "")
	defer s.Close()
	if _, err := s.Exec("INSERT INTO t (id, v) VALUES (1, 'local')", nil); err != nil {
		t.Fatalf("local write after leave: %v", err)
	}
	nodes[0].dist.Leave() // idempotent
}

// tableDump renders a table's contents in a canonical order, for
// byte-for-byte comparison across engines.
func tableDump(t *testing.T, e *sqlengine.Engine, table string) string {
	t.Helper()
	_, rows, err := e.SnapshotTable(table)
	if err != nil {
		t.Fatalf("snapshot %s on %s: %v", table, e.Name(), err)
	}
	lines := make([]string, 0, len(rows))
	for _, r := range rows {
		var b strings.Builder
		for _, v := range r {
			b.WriteString(v.Key())
			b.WriteByte('|')
		}
		lines = append(lines, b.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestConflictingWritesFromBothControllersConverge: both controllers run
// concurrent auto-commit and transactional updates of the same rows, and
// the updates do not commute (n*3 against n+1), so the engines end
// byte-identical only if every controller applies the conflicting
// deliveries in the one delivery order.
func TestConflictingWritesFromBothControllersConverge(t *testing.T) {
	const (
		rows       = 4
		sessions   = 4  // per controller
		opsPerSess = 60 // 240 updates per controller
		txEvery    = 4  // every fourth operation is a two-update transaction
	)
	g := groupcomm.NewGroup("app")
	nodes := mkCluster(t, g, 2)
	defer func() {
		for _, n := range nodes {
			n.dist.Leave()
		}
	}()

	setup, _ := nodes[0].vdb.NewSession("u", "")
	defer setup.Close()
	if _, err := setup.Exec("CREATE TABLE c (id INTEGER PRIMARY KEY, n INTEGER)", nil); err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= rows; id++ {
		if _, err := setup.Exec(fmt.Sprintf("INSERT INTO c (id, n) VALUES (%d, %d)", id, id), nil); err != nil {
			t.Fatal(err)
		}
	}

	// Controller 0 triples, controller 1 increments; a transaction applies
	// its controller's update to two rows.
	updates := []string{
		"UPDATE c SET n = (n * 3) %% 1000003 WHERE id = %d",
		"UPDATE c SET n = n + 1 WHERE id = %d",
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*sessions)
	for ni, n := range nodes {
		for si := 0; si < sessions; si++ {
			s, err := n.vdb.NewSession("u", "")
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			wg.Add(1)
			go func(ni, seed int) {
				defer wg.Done()
				for op := 0; op < opsPerSess; op++ {
					id := (seed+op)%rows + 1
					stmts := []string{fmt.Sprintf(updates[ni], id)}
					if op%txEvery == 0 {
						// Rows in ascending order, so transactions never deadlock.
						lo, hi := min(id, id%rows+1), max(id, id%rows+1)
						stmts = []string{"BEGIN", fmt.Sprintf(updates[ni], lo), fmt.Sprintf(updates[ni], hi), "COMMIT"}
					}
					for _, q := range stmts {
						if _, err := s.Exec(q, nil); err != nil {
							errs <- fmt.Errorf("controller %d: %s: %w", ni, q, err)
							return
						}
					}
				}
			}(ni, si)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// A fence write on each controller returns once its local backend has
	// executed it, and it executes behind every earlier update of c.
	for i, n := range nodes {
		s, _ := n.vdb.NewSession("u", "")
		if _, err := s.Exec("UPDATE c SET n = n + 0", nil); err != nil {
			t.Fatalf("fence on controller %d: %v", i, err)
		}
		s.Close()
	}
	want := tableDump(t, nodes[0].engine, "c")
	if got := tableDump(t, nodes[1].engine, "c"); got != want {
		t.Fatalf("controllers diverged: conflicting deliveries applied out of delivery order\nctrl0:\n%s\nctrl1:\n%s", want, got)
	}
}
