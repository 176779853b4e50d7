package recovery

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"cjdbc/internal/backend"
	"cjdbc/internal/sqlparser"
	"cjdbc/internal/sqlval"
)

// Dump is a portable snapshot of a database: schema plus data, the
// equivalent of the Octopus ETL dumps the paper uses for checkpointing.
// Tables and indexes are re-created through SQL on restore, so dumps move
// between heterogeneous backends.
type Dump struct {
	Name string `json:"name"`
	// Seq is the log position of the checkpoint marker the dump was taken
	// at; 0 when it was not recorded, and the marker is found by Name.
	Seq    uint64      `json:"seq,omitempty"`
	Taken  time.Time   `json:"taken"`
	Tables []TableDump `json:"tables"`
}

// TableDump is one table: the DDL recreating it and its rows.
type TableDump struct {
	Name string `json:"name"`
	// DDL is the table's CREATE TABLE — column types, keys and defaults —
	// followed by one CREATE INDEX per secondary index.
	DDL     []string      `json:"ddl"`
	Columns []string      `json:"columns"`
	Rows    [][]ValueDump `json:"rows"`
}

// ValueDump is one portable value: a kind tag and a string payload.
type ValueDump struct {
	K string `json:"k"`
	V string `json:"v,omitempty"`
}

func dumpValue(v sqlval.Value) ValueDump {
	switch v.K {
	case sqlval.KindNull:
		return ValueDump{K: "n"}
	case sqlval.KindInt:
		return ValueDump{K: "i", V: v.AsString()}
	case sqlval.KindFloat:
		return ValueDump{K: "f", V: v.AsString()}
	case sqlval.KindBool:
		return ValueDump{K: "b", V: v.AsString()}
	case sqlval.KindTime:
		return ValueDump{K: "t", V: v.Time().UTC().Format(time.RFC3339Nano)}
	case sqlval.KindBytes:
		return ValueDump{K: "x", V: v.S}
	default:
		return ValueDump{K: "s", V: v.S}
	}
}

// value is the inverse of dumpValue; a payload that does not parse is NULL.
func (v ValueDump) value() sqlval.Value {
	switch v.K {
	case "n":
	case "i":
		if i, err := strconv.ParseInt(v.V, 10, 64); err == nil {
			return sqlval.Int(i)
		}
	case "f":
		if f, err := strconv.ParseFloat(v.V, 64); err == nil {
			return sqlval.Float(f)
		}
	case "b":
		return sqlval.Bool(v.V == "TRUE")
	case "t":
		if t, err := time.Parse(time.RFC3339Nano, v.V); err == nil {
			return sqlval.Time(t)
		}
	case "x":
		return sqlval.Bytes([]byte(v.V))
	default:
		return sqlval.String_(v.V)
	}
	return sqlval.Null
}

// TakeDump snapshots every table reachable through the backend's schema
// provider. The backend should be disabled first so no updates occur during
// the dump (§3.1).
func TakeDump(name string, src backend.SchemaProvider) (*Dump, error) {
	return TakeDumpHosted(name, src, nil)
}

// TakeDumpHosted snapshots the tables the filter accepts — used when a
// checkpoint is taken from a donor hosting more tables than the backend it
// will seed (RAIDb-2 partial replication). nil dumps everything.
func TakeDumpHosted(name string, src backend.SchemaProvider, hosted HostFilter) (*Dump, error) {
	tables, err := src.TableNames()
	if err != nil {
		return nil, fmt.Errorf("recovery: dump: %w", err)
	}
	if hosted != nil {
		kept := tables[:0]
		for _, t := range tables {
			if hosted(t) {
				kept = append(kept, t)
			}
		}
		tables = kept
	}
	d := &Dump{Name: name, Taken: time.Now()}
	for _, t := range tables {
		create, rows, err := src.SnapshotTable(t)
		if err != nil {
			return nil, fmt.Errorf("recovery: dump table %s: %w", t, err)
		}
		indexes, err := src.Indexes(t)
		if err != nil {
			return nil, fmt.Errorf("recovery: dump indexes of %s: %w", t, err)
		}
		td := TableDump{Name: create.Table, DDL: []string{sqlparser.Render(create)}, Columns: make([]string, len(create.Columns))}
		for i, c := range create.Columns {
			td.Columns[i] = c.Name
		}
		for _, ix := range indexes {
			td.DDL = append(td.DDL, sqlparser.Render(ix))
		}
		for _, r := range rows {
			vr := make([]ValueDump, len(r))
			for i, v := range r {
				vr[i] = dumpValue(v)
			}
			td.Rows = append(td.Rows, vr)
		}
		d.Tables = append(d.Tables, td)
	}
	return d, nil
}

// InsertSQL renders batched INSERT statements restoring the table's rows,
// batchSize rows per statement.
func (td *TableDump) InsertSQL(batchSize int) []string {
	if batchSize <= 0 {
		batchSize = 100
	}
	head := "INSERT INTO " + td.Name + " (" + strings.Join(td.Columns, ", ") + ") VALUES "
	var out []string
	for start := 0; start < len(td.Rows); start += batchSize {
		end := start + batchSize
		if end > len(td.Rows) {
			end = len(td.Rows)
		}
		var b strings.Builder
		b.WriteString(head)
		for i, row := range td.Rows[start:end] {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString("(")
			for j, v := range row {
				if j > 0 {
					b.WriteString(", ")
				}
				b.WriteString(v.value().SQLLiteral())
			}
			b.WriteString(")")
		}
		out = append(out, b.String())
	}
	return out
}

// Restore replays a dump onto a backend through plain SQL, dropping any
// conflicting tables first. The backend must accept DirectExec (it is
// normally disabled while restoring).
func Restore(d *Dump, b *backend.Backend) error {
	return RestoreHosted(d, b, nil)
}

// RestoreHosted restores only the dumped tables the filter accepts — the
// RAIDb-2 path where a checkpoint taken from a donor with a wider table set
// seeds a backend hosting a subset. nil restores everything.
func RestoreHosted(d *Dump, b *backend.Backend, hosted HostFilter) error {
	for _, td := range d.Tables {
		if hosted != nil && !hosted(td.Name) {
			continue
		}
		if _, err := b.DirectExec(nil, "DROP TABLE IF EXISTS "+td.Name); err != nil {
			return fmt.Errorf("recovery: restore drop %s: %w", td.Name, err)
		}
		for _, ddl := range td.DDL {
			if _, err := b.DirectExec(nil, ddl); err != nil {
				return fmt.Errorf("recovery: restore create %s: %w", td.Name, err)
			}
		}
		for _, ins := range td.InsertSQL(200) {
			if _, err := b.DirectExec(nil, ins); err != nil {
				return fmt.Errorf("recovery: restore rows of %s: %w", td.Name, err)
			}
		}
	}
	return nil
}

// WriteTo serializes the dump as JSON.
func (d *Dump) WriteTo(w io.Writer) (int64, error) {
	b, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return 0, err
	}
	n, err := w.Write(b)
	return int64(n), err
}

// ReadDump parses a JSON dump.
func ReadDump(r io.Reader) (*Dump, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var d Dump
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("recovery: parse dump: %w", err)
	}
	return &d, nil
}
