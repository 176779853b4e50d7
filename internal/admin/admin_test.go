package admin

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"cjdbc/internal/backend"
	"cjdbc/internal/balancer"
	"cjdbc/internal/controller"
	"cjdbc/internal/recovery"
	"cjdbc/internal/sqlengine"
)

func newTestServer(t *testing.T) (*Server, *controller.VirtualDatabase) {
	t.Helper()
	s, vdb, _ := newTestServerN(t, 1, recovery.NewMemoryLog())
	return s, vdb
}

// newTestServerN serves one virtual database "app" over n engine backends
// db0..db(n-1), each holding table t with one row.
func newTestServerN(t *testing.T, n int, log recovery.Log) (*Server, *controller.VirtualDatabase, []*sqlengine.Engine) {
	t.Helper()
	c := controller.New("ctrl", 1)
	vdb, err := c.AddVirtualDatabase(controller.VDBConfig{Name: "app", ParallelTx: true, RecoveryLog: log})
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*sqlengine.Engine, n)
	for i := range engines {
		name := fmt.Sprintf("db%d", i)
		e := sqlengine.New(name)
		es := e.NewSession()
		for _, q := range []string{"CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)", "INSERT INTO t (id, v) VALUES (1, 0)"} {
			if _, err := es.ExecSQL(q); err != nil {
				t.Fatal(err)
			}
		}
		es.Close()
		engines[i] = e
		b := backend.New(backend.Config{Name: name, Driver: &backend.EngineDriver{Engine: e}})
		t.Cleanup(b.Close)
		if err := vdb.AddBackend(b); err != nil {
			t.Fatal(err)
		}
	}
	return New(c), vdb, engines
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestListVDBs(t *testing.T) {
	s, _ := newTestServer(t)
	rec := get(t, s.Handler(), "/vdbs")
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var names []string
	if err := json.Unmarshal(rec.Body.Bytes(), &names); err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "app" {
		t.Errorf("names = %v", names)
	}
}

func TestVDBInfo(t *testing.T) {
	s, _ := newTestServer(t)
	rec := get(t, s.Handler(), "/vdbs/app")
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var info VDBInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "app" || len(info.Backends) != 1 || info.Backends[0].State != "enabled" {
		t.Errorf("info = %+v", info)
	}
}

func TestMissingVDB404(t *testing.T) {
	s, _ := newTestServer(t)
	if rec := get(t, s.Handler(), "/vdbs/none"); rec.Code != 404 {
		t.Errorf("status = %d", rec.Code)
	}
}

func TestDisableEnableBackend(t *testing.T) {
	s, vdb := newTestServer(t)
	if rec := get(t, s.Handler(), "/vdbs/app/disable?backend=db0"); rec.Code != 200 {
		t.Fatalf("disable status = %d", rec.Code)
	}
	b, _ := vdb.Backend("db0")
	if b.Enabled() {
		t.Fatal("backend still enabled")
	}
	if rec := get(t, s.Handler(), "/vdbs/app/enable?backend=db0"); rec.Code != 200 {
		t.Fatalf("enable status = %d", rec.Code)
	}
	if !b.Enabled() {
		t.Fatal("backend still disabled")
	}
	if rec := get(t, s.Handler(), "/vdbs/app/enable?backend=missing"); rec.Code != 404 {
		t.Errorf("enable missing backend = %d", rec.Code)
	}
}

// TestEnableBringsBackendToExact: a backend disabled through the admin API
// misses the writes made while it is out; enable must not put it back into
// read routing until it holds them. With a recovery log that is the
// re-integration procedure (409 when it cannot run); without one only the
// raw state flip is left.
func TestEnableBringsBackendToExact(t *testing.T) {
	s, vdb, engines := newTestServerN(t, 2, recovery.NewMemoryLog())
	rows := func(e *sqlengine.Engine) string {
		es := e.NewSession()
		defer es.Close()
		res, err := es.ExecSQL("SELECT id, v FROM t ORDER BY id")
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(res.Rows)
	}
	sess, err := vdb.NewSession("user", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	if rec := get(t, s.Handler(), "/vdbs/app/disable?backend=db1"); rec.Code != 200 {
		t.Fatalf("disable status = %d", rec.Code)
	}
	for _, q := range []string{"UPDATE t SET v = 7 WHERE id = 1", "INSERT INTO t (id, v) VALUES (2, 9)"} {
		if _, err := sess.Exec(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	if rec := get(t, s.Handler(), "/vdbs/app/enable?backend=db1"); rec.Code != 200 {
		t.Fatalf("enable status = %d, body=%s", rec.Code, rec.Body.String())
	}
	if b, _ := vdb.Backend("db1"); !b.Enabled() {
		t.Fatal("backend still disabled")
	}
	if want, got := rows(engines[0]), rows(engines[1]); got != want {
		t.Fatalf("enable published an inexact copy: db0 %s, db1 %s", want, got)
	}

	// With every backend down and no dump to fall back on, there is nothing
	// to re-integrate from.
	s, vdb, _ = newTestServerN(t, 2, recovery.NewMemoryLog())
	get(t, s.Handler(), "/vdbs/app/disable?backend=db0")
	get(t, s.Handler(), "/vdbs/app/disable?backend=db1")
	if rec := get(t, s.Handler(), "/vdbs/app/enable?backend=db1"); rec.Code != 409 {
		t.Fatalf("enable with no source = %d, want 409", rec.Code)
	}
	if b, _ := vdb.Backend("db1"); b.Enabled() {
		t.Fatal("refused enable enabled the backend")
	}

	// No recovery log: the raw enable is all there is.
	s, vdb, _ = newTestServerN(t, 2, nil)
	get(t, s.Handler(), "/vdbs/app/disable?backend=db1")
	if rec := get(t, s.Handler(), "/vdbs/app/enable?backend=db1"); rec.Code != 200 {
		t.Fatalf("log-less enable status = %d", rec.Code)
	}
	if b, _ := vdb.Backend("db1"); !b.Enabled() {
		t.Fatal("log-less enable left the backend disabled")
	}
}

func TestCheckpointEndpoint(t *testing.T) {
	s, vdb := newTestServer(t)
	if rec := get(t, s.Handler(), "/vdbs/app/checkpoint?name=cp1"); rec.Code != 200 {
		t.Fatalf("checkpoint status = %d, body=%s", rec.Code, rec.Body.String())
	}
	seq, ok, err := vdb.RecoveryLog().CheckpointSeq("cp1")
	if err != nil || !ok || seq == 0 {
		t.Errorf("checkpoint not recorded: %d %v %v", seq, ok, err)
	}
	if rec := get(t, s.Handler(), "/vdbs/app/checkpoint"); rec.Code != 400 {
		t.Errorf("nameless checkpoint = %d", rec.Code)
	}
}

func TestUnknownAction(t *testing.T) {
	s, _ := newTestServer(t)
	if rec := get(t, s.Handler(), "/vdbs/app/frobnicate"); rec.Code != 404 {
		t.Errorf("unknown action = %d", rec.Code)
	}
}

func TestPlacementEndpoints(t *testing.T) {
	c := controller.New("ctrl", 1)
	vdb, err := c.AddVirtualDatabase(controller.VDBConfig{
		Name:        "papp",
		Replication: balancer.NewPartialReplication(nil),
		ParallelTx:  true,
		RecoveryLog: recovery.NewMemoryLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, tables := range [][]string{{"a"}, nil} {
		name := "db" + string(rune('0'+i))
		e := sqlengine.New(name)
		if i == 0 {
			es := e.NewSession()
			if _, err := es.ExecSQL("CREATE TABLE a (id INTEGER PRIMARY KEY, v INTEGER)"); err != nil {
				t.Fatal(err)
			}
			if _, err := es.ExecSQL("INSERT INTO a (id, v) VALUES (1, 0)"); err != nil {
				t.Fatal(err)
			}
			es.Close()
		}
		b := backend.New(backend.Config{Name: name, Driver: &backend.EngineDriver{Engine: e}, Tables: tables})
		t.Cleanup(b.Close)
		if err := vdb.AddBackend(b); err != nil {
			t.Fatal(err)
		}
	}
	s := New(c)

	// One read through the vdb so the load counters are non-empty.
	sess, err := vdb.NewSession("user", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Exec("SELECT COUNT(*) FROM a", nil); err != nil {
		t.Fatal(err)
	}

	var info VDBInfo
	rec := get(t, s.Handler(), "/vdbs/papp")
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if len(info.Placement["a"]) != 1 || info.Placement["a"][0] != "db0" {
		t.Fatalf("placement = %v", info.Placement)
	}
	if len(info.TableLoads) == 0 || info.TableLoads[0].Table != "a" || info.TableLoads[0].Reads == 0 {
		t.Fatalf("tableLoads = %+v", info.TableLoads)
	}

	if rec := get(t, s.Handler(), "/vdbs/papp/addtablehost?table=a&backend=db1"); rec.Code != 200 {
		t.Fatalf("addtablehost = %d, body=%s", rec.Code, rec.Body.String())
	}
	rec = get(t, s.Handler(), "/vdbs/papp")
	info = VDBInfo{}
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if len(info.Placement["a"]) != 2 {
		t.Fatalf("placement after add = %v", info.Placement)
	}

	if rec := get(t, s.Handler(), "/vdbs/papp/addtablehost?table=a&backend=db1"); rec.Code != 409 {
		t.Fatalf("duplicate addtablehost = %d", rec.Code)
	}
	if rec := get(t, s.Handler(), "/vdbs/papp/removetablehost?table=a&backend=db0"); rec.Code != 200 {
		t.Fatalf("removetablehost = %d, body=%s", rec.Code, rec.Body.String())
	}
	if rec := get(t, s.Handler(), "/vdbs/papp/removetablehost?table=a&backend=db1"); rec.Code != 409 {
		t.Fatalf("last-host removetablehost = %d", rec.Code)
	}
	if rec := get(t, s.Handler(), "/vdbs/papp/addtablehost?table=a"); rec.Code != 400 {
		t.Fatalf("missing backend param = %d", rec.Code)
	}
}

func TestListenServesHTTP(t *testing.T) {
	s, _ := newTestServer(t)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := http.Get("http://" + addr + "/vdbs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("status = %d", resp.StatusCode)
	}
}
