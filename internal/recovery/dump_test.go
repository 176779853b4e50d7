package recovery

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"cjdbc/internal/backend"
	"cjdbc/internal/sqlengine"
)

func engineOf(b *backend.Backend) *sqlengine.Engine {
	return b.Driver().(*backend.EngineDriver).Engine
}

// TestRestoreKeepsIndexesAndDefaults: a restored copy is the database that
// was dumped, not just its columns and rows. Its secondary indexes come
// back, a UNIQUE one still refuses a duplicate, and a column default still
// fills an omitted value. A copy without them diverges silently: the
// duplicate insert the source refuses succeeds on it. The dump's format is
// pinned: its JSON is byte for byte the one earlier versions wrote, and the
// copy is restored from that literal, so an old dump restores unchanged.
func TestRestoreKeepsIndexesAndDefaults(t *testing.T) {
	src := mkBackend(t, "isrc",
		"CREATE TABLE u (id INTEGER PRIMARY KEY AUTO_INCREMENT, a INTEGER NOT NULL, b INTEGER, tag VARCHAR DEFAULT 'none')",
		"CREATE UNIQUE INDEX ux ON u (a)",
		"CREATE INDEX ib ON u (b)",
		"INSERT INTO u (id, a, b) VALUES (1, 10, 100)")
	d, err := TakeDump("idx", src.Driver().(backend.SchemaProvider))
	if err != nil {
		t.Fatal(err)
	}
	const ddl = "CREATE TABLE u (id INTEGER PRIMARY KEY AUTO_INCREMENT, a INTEGER NOT NULL, b INTEGER, tag VARCHAR DEFAULT 'none')"
	if got := d.Tables[0].DDL[0]; got != ddl {
		t.Fatalf("dumped DDL = %q, want %q", got, ddl)
	}
	if got := strings.Join(d.Tables[0].Columns, ","); got != "id,a,b,tag" {
		t.Fatalf("dumped columns = %s, want id,a,b,tag", got)
	}
	const pinned = `{"name":"idx","taken":"2024-01-02T03:04:05Z","tables":[{"name":"u","ddl":[` +
		`"CREATE TABLE u (id INTEGER PRIMARY KEY AUTO_INCREMENT, a INTEGER NOT NULL, b INTEGER, tag VARCHAR DEFAULT 'none')",` +
		`"CREATE INDEX ib ON u (b)","CREATE UNIQUE INDEX ux ON u (a)"],"columns":["id","a","b","tag"],` +
		`"rows":[[{"k":"i","v":"1"},{"k":"i","v":"10"},{"k":"i","v":"100"},{"k":"s","v":"none"}]]}]}`
	d.Taken = time.Date(2024, 1, 2, 3, 4, 5, 0, time.UTC)
	var buf, compact bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&compact, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if compact.String() != pinned {
		t.Fatalf("dump JSON changed:\n got %s\nwant %s", compact.String(), pinned)
	}
	if d, err = ReadDump(strings.NewReader(pinned)); err != nil {
		t.Fatal(err)
	}
	dst := mkBackend(t, "idst")
	if err := Restore(d, dst); err != nil {
		t.Fatal(err)
	}

	want, _ := engineOf(src).Indexes("u")
	got, _ := engineOf(dst).Indexes("u")
	if len(want) != 2 || len(got) != len(want) {
		t.Fatalf("restored copy has %d secondary indexes, the source %d", len(got), len(want))
	}
	if wd, gd := dumpState(t, src), dumpState(t, dst); wd["u"] != gd["u"] {
		t.Fatalf("restored table differs from the dumped one:\n--- source:\n%s\n--- copy:\n%s", wd["u"], gd["u"])
	}
	for _, b := range []*backend.Backend{src, dst} {
		if _, err := b.DirectExec(nil, "INSERT INTO u (id, a, b) VALUES (2, 10, 200)"); err == nil {
			t.Fatalf("%s accepted a duplicate of a UNIQUE index key", b.Name())
		}
		if _, err := b.DirectExec(nil, "INSERT INTO u (id, a, b) VALUES (3, 30, 300)"); err != nil {
			t.Fatal(err)
		}
		res, err := b.DirectExec(nil, "SELECT tag FROM u WHERE id = 3")
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].AsString() != "none" {
			t.Fatalf("%s: defaulted column = %v (err %v), want 'none'", b.Name(), res, err)
		}
	}
}

// TestRestoreKeepsTimestampPrecision: a dumped timestamp restores to the
// nanosecond, not truncated to whole seconds.
func TestRestoreKeepsTimestampPrecision(t *testing.T) {
	stamp := time.Date(2024, 1, 2, 3, 4, 5, 123456789, time.UTC)
	src := mkBackend(t, "tsrc",
		"CREATE TABLE ts (id INTEGER PRIMARY KEY, at TIMESTAMP)",
		"INSERT INTO ts (id, at) VALUES (1, '2024-01-02 03:04:05.123456789')")
	d, err := TakeDump("ts", src.Driver().(backend.SchemaProvider))
	if err != nil {
		t.Fatal(err)
	}
	dst := mkBackend(t, "tdst")
	if err := Restore(d, dst); err != nil {
		t.Fatal(err)
	}
	res, err := dst.DirectExec(nil, "SELECT at FROM ts")
	if err != nil || len(res.Rows) != 1 || !res.Rows[0][0].Time().Equal(stamp) {
		t.Fatalf("restored timestamp = %v (err %v), want %v", res, err, stamp)
	}
}
