package netproto

import (
	"strings"
	"sync"
	"testing"

	"cjdbc/internal/backend"
	"cjdbc/internal/controller"
	"cjdbc/internal/sqlengine"
	"cjdbc/internal/sqlval"
)

func newServer(t *testing.T) (*Server, string) {
	t.Helper()
	c := controller.New("ctrl", 1)
	auth := controller.NewAuthManager()
	auth.AddUser("alice", "pw")
	vdb, err := c.AddVirtualDatabase(controller.VDBConfig{Name: "app", ParallelTx: true, Auth: auth})
	if err != nil {
		t.Fatal(err)
	}
	e := sqlengine.New("db0")
	s := e.NewSession()
	s.ExecSQL("CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR)")
	s.Close()
	b := backend.New(backend.Config{Name: "db0", Driver: &backend.EngineDriver{Engine: e}})
	t.Cleanup(b.Close)
	if err := vdb.AddBackend(b); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(c)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, addr
}

func TestConnectExecRoundTrip(t *testing.T) {
	_, addr := newServer(t)
	c, err := Dial(addr, "app", "alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	res, err := c.Exec("INSERT INTO t (id, v) VALUES (?, ?)",
		[]sqlval.Value{sqlval.Int(1), sqlval.String_("hello")})
	if err != nil || res.RowsAffected != 1 {
		t.Fatalf("insert: %+v, %v", res, err)
	}
	res, err = c.Exec("SELECT v FROM t WHERE id = 1", nil)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].AsString() != "hello" {
		t.Fatalf("select: %+v, %v", res, err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
}

func TestAllValueKindsSurviveTheWire(t *testing.T) {
	_, addr := newServer(t)
	c, err := Dial(addr, "app", "alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("CREATE TABLE k (i INTEGER, f FLOAT, s VARCHAR, b BOOLEAN, ts TIMESTAMP, bl BLOB)", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("INSERT INTO k (i, f, s, b, ts, bl) VALUES (1, 2.5, 'x''y', TRUE, '2004-06-27 10:00:00', 'bin')", nil); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec("SELECT i, f, s, b, ts, bl FROM k", nil)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row[0].I != 1 || row[1].Float64() != 2.5 || row[2].S != "x'y" || !row[3].AsBool() ||
		row[4].Time().Year() != 2004 || string(row[5].Bytes()) != "bin" {
		t.Fatalf("row: %v", row)
	}
}

func TestAuthFailures(t *testing.T) {
	_, addr := newServer(t)
	if _, err := Dial(addr, "app", "alice", "wrong"); err == nil {
		t.Fatal("bad password accepted")
	}
	if _, err := Dial(addr, "missing", "alice", "pw"); err == nil ||
		!strings.Contains(err.Error(), "missing") {
		t.Fatalf("missing vdb: %v", err)
	}
}

func TestSQLErrorsAreNotConnLost(t *testing.T) {
	_, addr := newServer(t)
	c, err := Dial(addr, "app", "alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Exec("SELECT * FROM nope", nil)
	if err == nil || IsConnLost(err) {
		t.Fatalf("semantic error misclassified: %v", err)
	}
	// Connection still usable.
	if _, err := c.Exec("SELECT COUNT(*) FROM t", nil); err != nil {
		t.Fatalf("after error: %v", err)
	}
}

func TestServerCloseSeversClientsAndRollsBack(t *testing.T) {
	srv, addr := newServer(t)
	c, err := Dial(addr, "app", "alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("BEGIN", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("INSERT INTO t (id, v) VALUES (9, 'ghost')", nil); err != nil {
		t.Fatal(err)
	}
	srv.Close() // must not hang, and must kill the session

	_, err = c.Exec("COMMIT", nil)
	if err == nil || !IsConnLost(err) {
		t.Fatalf("exec after server close: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr := newServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr, "app", "alice", "pw")
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				if _, err := c.Exec("SELECT COUNT(*) FROM t", nil); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTransactionOverWire(t *testing.T) {
	_, addr := newServer(t)
	c, _ := Dial(addr, "app", "alice", "pw")
	defer c.Close()
	c.Exec("BEGIN", nil)
	c.Exec("INSERT INTO t (id, v) VALUES (5, 'tx')", nil)
	c.Exec("ROLLBACK", nil)
	res, err := c.Exec("SELECT COUNT(*) FROM t", nil)
	if err != nil || res.Rows[0][0].I != 0 {
		t.Fatalf("rollback over wire: %v %v", res, err)
	}
}
