package sqlparser

import "sort"

// ConflictClass computes the conflict footprint of a statement for
// conflict-class write scheduling: the sorted, deduplicated, lower-cased set
// of tables the statement touches, and whether it conflicts with everything
// (global). Two writes conflict iff their footprints intersect or either is
// global; the cluster only needs conflicting writes to apply in the same
// order on every replica — disjoint footprints commute.
//
// DDL is always global: schema changes affect the planning and routing of
// every other statement (and the engine serializes DDL against everything
// anyway). A nil statement or one whose tables cannot be determined is
// global too — unknown footprints must be assumed to conflict with all.
// INSERT ... SELECT and CREATE TABLE ... AS SELECT footprints include their
// source tables, so a write ordering against the read side stays sequenced.
func ConflictClass(st Statement) (tables []string, global bool) {
	if st == nil || IsDDL(st) {
		return nil, true
	}
	ts := st.Tables()
	if len(ts) == 0 {
		return nil, true
	}
	tables = append(tables, ts...)
	sort.Strings(tables)
	dedup := tables[:1]
	for _, t := range tables[1:] {
		if t != dedup[len(dedup)-1] {
			dedup = append(dedup, t)
		}
	}
	return dedup, false
}

// IsDDL reports whether st changes the schema rather than table contents.
func IsDDL(st Statement) bool {
	st, _ = Unwrap(st)
	switch st.(type) {
	case *CreateTable, *DropTable, *CreateIndex, *DropIndex:
		return true
	}
	return false
}
