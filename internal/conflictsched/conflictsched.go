// Package conflictsched implements the conflict-class dependency rule
// shared by the two pipelines that turn a totally ordered stream of write
// operations into parallel execution: the backend's auto-commit write pool
// and the parallel recovery-log replayer. A task entering the pool waits
// only on the completion of the newest earlier task per key of its conflict
// footprint (keys are table names, plus synthetic keys such as transaction
// identifiers); a barrier task — DDL, an unknown footprint — waits for
// everything ahead of it and everything behind it waits for the barrier.
// Because each per-key chain is linked through the newest task, waiting on
// the newest transitively waits on the whole chain, so submission order
// restricted to any conflict class is preserved while disjoint classes run
// concurrently. The rule lives in Pool (pool.go), which also supplies the
// execution vehicle: dependency-counted ready-task handoff onto a fixed
// worker set.
package conflictsched

import "strconv"

// TxKey returns the synthetic pool key chaining the operations of one
// transaction: they must keep their submission order even when their table
// footprints are disjoint. Table names are SQL identifiers, so the NUL
// prefix cannot collide with a table key.
func TxKey(id uint64) string {
	return "\x00tx:" + strconv.FormatUint(id, 10)
}

// KeysWithTx returns a task's pool keys: its table footprint plus, for
// a transactional task (txID != 0), the transaction key. The result is a
// fresh slice; tables is not modified.
func KeysWithTx(tables []string, txID uint64) []string {
	if txID == 0 {
		return tables
	}
	return append(append(make([]string, 0, len(tables)+1), tables...), TxKey(txID))
}
