package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"cjdbc"
	"cjdbc/bench/tpcw"
)

// The point schema: eight tables kv0..kv7 of (id PK, v, pad), ten thousand
// rows each. Rows are well above the two clients in number, and every
// statement carries ? parameters so the plan cache holds eight texts per
// statement shape.
const (
	nTables   = 8
	rangeRows = 50
)

// rowsPerTable is ten thousand in every measured run. It is a variable only
// so that the package's tests can run all seven workloads on tables small
// enough to load in milliseconds (setDataSize).
var rowsPerTable int

// loadedPad holds padFor of every loaded row, so that checking a read
// compares two strings and allocates nothing.
var loadedPad [nTables][]string

var tpcwScale tpcw.Scale

func setDataSize(rows int, sc tpcw.Scale) {
	rowsPerTable, tpcwScale = rows, sc
	for t := range loadedPad {
		loadedPad[t] = make([]string, rows)
		for id := range loadedPad[t] {
			loadedPad[t][id] = padFor(t, int64(id))
		}
	}
}

// initialV is the v a loaded row starts with; reads on read-only workloads
// must return exactly it.
func initialV(id int64) int64 { return id * 7 % 1000 }

// padFor is the pad a row must carry whoever wrote it.
func padFor(table int, id int64) string {
	return fmt.Sprintf("pad-%d-%08d-................", table, id)
}

type opKind uint8

const (
	opRead opKind = iota
	opRange
	opUpdate // v = v + ?  (the delta is args[0])
	opInsert
	opBegin
	opCommit
)

// op is one request, generated before the clock starts. args is boxed once
// here so that issuing the request allocates nothing in the load generator.
type op struct {
	kind  opKind
	table uint8
	id    int64 // key read, updated or inserted; low end of a range
	delta int64 // what the op adds to SUM(v) of its table
	sql   string
	args  []any
}

var (
	readSQL, rangeSQL, updateSQL, insertSQL [nTables]string
)

func init() {
	for t := 0; t < nTables; t++ {
		readSQL[t] = fmt.Sprintf("SELECT id, v, pad FROM kv%d WHERE id = ?", t)
		rangeSQL[t] = fmt.Sprintf("SELECT id, v, pad FROM kv%d WHERE id >= ? AND id < ? ORDER BY id", t)
		updateSQL[t] = fmt.Sprintf("UPDATE kv%d SET v = v + ? WHERE id = ?", t)
		insertSQL[t] = fmt.Sprintf("INSERT INTO kv%d (id, v, pad) VALUES (?, ?, ?)", t)
	}
	setDataSize(10000, tpcw.Scale{Items: 1000, Customers: 1000, Authors: 250})
}

func readOp(t int, id int64) op {
	return op{kind: opRead, table: uint8(t), id: id, sql: readSQL[t], args: []any{id}}
}

func rangeOp(t int, lo int64) op {
	return op{kind: opRange, table: uint8(t), id: lo, sql: rangeSQL[t], args: []any{lo, lo + rangeRows}}
}

func updateOp(t int, id, delta int64) op {
	return op{kind: opUpdate, table: uint8(t), id: id, delta: delta, sql: updateSQL[t], args: []any{delta, id}}
}

func insertOp(t int, id, v int64) op {
	return op{kind: opInsert, table: uint8(t), id: id, delta: v, sql: insertSQL[t], args: []any{id, v, padFor(t, id)}}
}

// clientRNG gives each client of a run its own stream from the run's seed.
func clientRNG(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(client)*7919 + 1))
}

// genPointRead: uniform single-row primary-key reads.
func genPointRead(rng *rand.Rand, _, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = readOp(rng.Intn(nTables), int64(rng.Intn(rowsPerTable)))
	}
	return ops
}

// genPointWrite: 80 % increments, 20 % single-row inserts, table uniform.
// Each client inserts its own id sequence, so no insert collides.
func genPointWrite(rng *rand.Rand, client, n int) []op {
	ops := make([]op, n)
	next := [nTables]int64{}
	for i := range ops {
		t := rng.Intn(nTables)
		if rng.Intn(5) == 0 {
			id := int64(rowsPerTable*(1+client)) + next[t]
			next[t]++
			ops[i] = insertOp(t, id, int64(rng.Intn(1000)))
		} else {
			ops[i] = updateOp(t, int64(rng.Intn(rowsPerTable)), 1)
		}
	}
	return ops
}

// degradedWriteEvery sets the write share of the traffic recovery_reintegrate
// sends while db1 is out: one request in this many is a point_write
// statement, the rest are point reads. Only the writes reach the recovery log,
// and replaying one costs a thousand times what applying it did, so the writes
// are held to what a round can afford to replay; the reads are there so that
// the round's latency figures rest on twenty thousand requests, not on the
// first fifteen milliseconds after a backend was disabled.
const degradedWriteEvery = 20

// genDegraded: the point_write mix diluted with uniform point reads.
func genDegraded(rng *rand.Rand, client, n int) []op {
	writes := genPointWrite(rng, client, n/degradedWriteEvery)
	ops := make([]op, n)
	for i := range ops {
		if i%degradedWriteEvery == degradedWriteEvery-1 {
			ops[i] = writes[i/degradedWriteEvery]
		} else {
			ops[i] = readOp(rng.Intn(nTables), int64(rng.Intn(rowsPerTable)))
		}
	}
	return ops
}

// genPointTxn: transfers of 1..9 between two tables, lower table first, so
// concurrent transactions queue on table locks in one order and cannot
// deadlock; SUM(v) over all tables is conserved. n counts requests, four per
// transaction.
func genPointTxn(rng *rand.Rand, _, n int) []op {
	ops := make([]op, 0, n)
	for len(ops)+4 <= n {
		a := rng.Intn(nTables - 1)
		b := a + 1 + rng.Intn(nTables-1-a)
		d := int64(1 + rng.Intn(9))
		ops = append(ops,
			op{kind: opBegin},
			updateOp(a, int64(rng.Intn(rowsPerTable)), d),
			updateOp(b, int64(rng.Intn(rowsPerTable)), -d),
			op{kind: opCommit})
	}
	return ops
}

// cachedUpdateEvery is the invalidation share of cached_read: one increment
// per this many requests. With table-granularity coherence an update drops
// every cached row of its table, so this one number sets the hit ratio; it
// was chosen once to land the ratio between 0.5 and 0.8 and is frozen.
const cachedUpdateEvery = 400

// genCachedRead: point reads with Zipf(1.1) keys over all 80 000 keys — the
// hot set fits the 4096-entry cache, the tail does not — plus the update
// share above.
func genCachedRead(rng *rand.Rand, _, n int) []op {
	z := rand.NewZipf(rng, 1.1, 1, uint64(nTables*rowsPerTable-1))
	ops := make([]op, n)
	for i := range ops {
		k := int(z.Uint64())
		// Ranks are spread over the tables so the hot keys are not all
		// dropped by one table's invalidation.
		t, id := k%nTables, int64(k/nTables)
		if rng.Intn(cachedUpdateEvery) == 0 {
			ops[i] = updateOp(t, id, 1)
		} else {
			ops[i] = readOp(t, id)
		}
	}
	return ops
}

// genWireRead: 80 % point reads, 20 % fifty-row primary-key ranges.
func genWireRead(rng *rand.Rand, _, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		t := rng.Intn(nTables)
		if rng.Intn(5) == 0 {
			ops[i] = rangeOp(t, int64(rng.Intn(rowsPerTable-rangeRows)))
		} else {
			ops[i] = readOp(t, int64(rng.Intn(rowsPerTable)))
		}
	}
	return ops
}

// streamHash identifies a generated stream: statement texts and arguments of
// every client in order.
func streamHash(streams [][]op) uint64 {
	h := fnv.New64a()
	for c, ops := range streams {
		fmt.Fprintf(h, "client %d\n", c)
		for _, o := range ops {
			fmt.Fprintln(h, o.kind, o.sql, o.args)
		}
	}
	return h.Sum64()
}

// expectation is what the tables must hold after every op of the streams
// succeeded on top of the loaded data.
type expectation struct {
	rows [nTables]int64
	sum  [nTables]int64
}

func loadedExpectation() expectation {
	var e expectation
	for t := range e.rows {
		e.rows[t] = int64(rowsPerTable)
		for id := int64(0); id < int64(rowsPerTable); id++ {
			e.sum[t] += initialV(id)
		}
	}
	return e
}

func (e *expectation) apply(streams [][]op) {
	for _, ops := range streams {
		for _, o := range ops {
			switch o.kind {
			case opInsert:
				e.rows[o.table]++
				e.sum[o.table] += o.delta
			case opUpdate:
				e.sum[o.table] += o.delta
			}
		}
	}
}

// loadPoint creates and fills the point schema through a session, so both
// replicas are loaded by the write-all path like any other write.
func loadPoint(sess cjdbc.Session) error {
	var sb strings.Builder
	for t := 0; t < nTables; t++ {
		if _, err := sess.Exec(fmt.Sprintf("CREATE TABLE kv%d (id INTEGER PRIMARY KEY, v INTEGER, pad VARCHAR)", t)); err != nil {
			return err
		}
		const batch = 500 // rows per INSERT
		for lo := 0; lo < rowsPerTable; lo += batch {
			sb.Reset()
			fmt.Fprintf(&sb, "INSERT INTO kv%d (id, v, pad) VALUES ", t)
			for id := int64(lo); id < int64(lo+batch) && id < int64(rowsPerTable); id++ {
				if id > int64(lo) {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, "(%d, %d, '%s')", id, initialV(id), loadedPad[t][id])
			}
			if _, err := sess.Exec(sb.String()); err != nil {
				return err
			}
		}
	}
	return nil
}
