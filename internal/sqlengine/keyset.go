package sqlengine

import (
	"bytes"
	"hash/maphash"

	"cjdbc/internal/sqlval"
)

// keySeed seeds every key set's hash. One seed per process is enough: the
// hash only spreads keys over the map, and ids never depend on it.
var keySeed = maphash.MakeSeed()

// keySet numbers distinct byte keys 0, 1, 2, ... in first-seen order. It is
// the group table of GROUP BY and the seen-set of SELECT DISTINCT and of an
// aggregate's DISTINCT. A key's bytes are copied into one append-only
// arena, first maps a key's hash to the first id with that hash, and ids
// sharing a hash are chained through keys[id].next. Adding a key therefore
// allocates nothing of its own: the map, the chain slice and the arena grow
// by doubling, O(log n) allocations for n keys, where a map[string] pays
// one string per key. The zero value is an empty set.
type keySet struct {
	first map[uint64]int32
	keys  []keyEntry
	arena []byte
	// hash replaces maphash when set. Tests use it to make keys collide.
	hash func(key []byte) uint64
}

// keyEntry is one key: its bytes end at arena[end] (and start where the
// previous key's end), and next is the following id with the same hash, or
// -1.
type keyEntry struct {
	end  int
	next int32
}

// add returns key's id, giving it the next id when the set does not hold
// it yet; added reports that it was new. key is copied, so the caller may
// reuse its buffer.
func (s *keySet) add(key []byte) (id int32, added bool) {
	h, id, found, ok := s.lookup(key)
	if found {
		return id, false
	}
	if s.first == nil {
		s.first = make(map[uint64]int32)
	}
	n := int32(len(s.keys))
	if ok {
		s.keys[id].next = n // id is the chain's tail
	} else {
		s.first[h] = n
	}
	s.arena = append(s.arena, key...)
	s.keys = append(s.keys, keyEntry{end: len(s.arena), next: -1})
	return n, true
}

// find returns key's id, or ok=false when the set does not hold it.
func (s *keySet) find(key []byte) (id int32, ok bool) {
	_, id, found, _ := s.lookup(key)
	return id, found
}

// lookup hashes key and walks its hash chain: found reports that id is
// key's; otherwise ok reports that the chain exists and id is its tail.
func (s *keySet) lookup(key []byte) (h uint64, id int32, found, ok bool) {
	if s.hash != nil {
		h = s.hash(key)
	} else {
		h = maphash.Bytes(keySeed, key)
	}
	if id, ok = s.first[h]; !ok {
		return h, 0, false, false
	}
	for {
		if bytes.Equal(s.key(id), key) {
			return h, id, true, true
		}
		next := s.keys[id].next
		if next < 0 {
			return h, id, false, true
		}
		id = next
	}
}

// key returns the bytes of key id.
func (s *keySet) key(id int32) []byte {
	start := 0
	if id > 0 {
		start = s.keys[id-1].end
	}
	return s.arena[start:s.keys[id].end]
}

// len is the number of distinct keys added.
func (s *keySet) len() int { return len(s.keys) }

// groupTable numbers single values 0, 1, 2, ... in first-seen order: the
// group table of a GROUP BY over one key, and the seen-set of a DISTINCT
// over one column and of an aggregate's DISTINCT. A value of the integer
// class (sqlval.Value.IntKey: INTEGER, BOOLEAN, integral FLOAT) is looked up
// by its int64 in ints, with no key bytes built and no hash call of its
// own; every other value goes to set under its AppendKey bytes, whose ids
// map to the shared ones through ids. A composite key (addKey) goes to set
// alone. The zero value is an empty table.
type groupTable struct {
	ints map[int64]int32
	set  keySet
	ids  []int32 // set's id i is the table's ids[i]
	n    int32   // ids handed out
	buf  []byte  // key scratch
}

// addValue returns v's id, giving it the next id when the table does not
// hold it yet; added reports that it was new.
func (t *groupTable) addValue(v sqlval.Value) (id int32, added bool) {
	if i, ok := v.IntKey(); ok {
		if id, ok := t.ints[i]; ok {
			return id, false
		}
		if t.ints == nil {
			t.ints = make(map[int64]int32)
		}
		t.ints[i] = t.n
		t.n++
		return t.n - 1, true
	}
	t.buf = v.AppendKey(t.buf[:0])
	return t.addKey(t.buf)
}

// find returns v's id, or ok=false when the table does not hold v.
func (t *groupTable) find(v sqlval.Value) (id int32, ok bool) {
	if i, isInt := v.IntKey(); isInt {
		id, ok = t.ints[i]
		return id, ok
	}
	t.buf = v.AppendKey(t.buf[:0])
	sid, ok := t.set.find(t.buf)
	if !ok {
		return 0, false
	}
	return t.ids[sid], true
}

// addKey is addValue for a key already in bytes. A table takes either
// values or composite keys, never both.
func (t *groupTable) addKey(key []byte) (id int32, added bool) {
	sid, added := t.set.add(key)
	if !added {
		return t.ids[sid], false
	}
	t.ids = append(t.ids, t.n)
	t.n++
	return t.n - 1, true
}
