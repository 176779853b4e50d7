package sqlengine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"cjdbc/internal/sqlval"
)

// checkKeySet adds keys to a fresh set and to a map[string]int32 reference
// in the same order: every id, every added flag and the final size must
// agree, and each id's stored bytes must be its key.
func checkKeySet(t *testing.T, hash func([]byte) uint64, keys [][]byte) {
	t.Helper()
	s := keySet{hash: hash}
	ref := make(map[string]int32)
	var buf []byte
	for _, k := range keys {
		// The caller's buffer is reused for every key, as the engine's is.
		buf = append(buf[:0], k...)
		want, known := ref[string(k)]
		if !known {
			want = int32(len(ref))
			ref[string(k)] = want
		}
		got, added := s.add(buf)
		if got != want || added == known {
			t.Fatalf("add(%q) = %d, added %v; the map says %d, new %v", k, got, added, want, !known)
		}
	}
	if s.len() != len(ref) {
		t.Fatalf("%d keys, the map holds %d", s.len(), len(ref))
	}
	for k, id := range ref {
		if !bytes.Equal(s.key(id), []byte(k)) {
			t.Fatalf("key %d is %q, want %q", id, s.key(id), k)
		}
	}
}

// TestKeySetMatchesMap: the key set numbers keys exactly as a map[string]
// does, with maphash and with a degenerate hash under which every key
// collides, so every lookup walks one chain.
func TestKeySetMatchesMap(t *testing.T) {
	var keys [][]byte
	for i := 0; i < 300; i++ {
		keys = append(keys, appendKeyPart(nil, sqlval.Int(int64(i%97))))
		keys = append(keys, []byte(fmt.Sprintf("k%d", i%41)))
	}
	keys = append(keys, nil, []byte{}, []byte{0}, []byte{0, 0}, []byte("k1"))
	for _, tc := range []struct {
		name string
		hash func([]byte) uint64
	}{
		{"maphash", nil},
		{"collide", func([]byte) uint64 { return 7 }},
	} {
		t.Run(tc.name, func(t *testing.T) { checkKeySet(t, tc.hash, keys) })
	}
}

// FuzzKeySet compares the ids of a key set against a map[string]int32 over
// the keys a fuzzed byte string splits into, under maphash and under a
// hash of the key's first byte, which makes most keys collide.
func FuzzKeySet(f *testing.F) {
	f.Add([]byte("a,b,a,,c,b"), uint8(','))
	f.Add([]byte("\x00\x01\x00\x00\x01"), uint8(0))
	f.Add([]byte("xxxxxxxx"), uint8('x'))
	f.Fuzz(func(t *testing.T, data []byte, sep uint8) {
		keys := bytes.Split(data, []byte{sep})
		checkKeySet(t, nil, keys)
		checkKeySet(t, func(k []byte) uint64 {
			if len(k) == 0 {
				return 0
			}
			return uint64(k[0] & 3)
		}, keys)
	})
}

// groupKeyValue decodes one fuzzed value: an INTEGER, a small INTEGER, a
// FLOAT of any bits (NaN, infinities, -0), an integral FLOAT near the 1e15
// edge of the integer class, a non-integral FLOAT, a BOOLEAN, NULL or a
// string.
func groupKeyValue(kind byte, x uint64) sqlval.Value {
	switch kind % 8 {
	case 0:
		return sqlval.Int(int64(x))
	case 1:
		return sqlval.Int(int64(int8(x)))
	case 2:
		return sqlval.Float(math.Float64frombits(x))
	case 3:
		return sqlval.Float(float64(int64(x) >> 13))
	case 4:
		return sqlval.Float(float64(int8(x)) + 0.5)
	case 5:
		return sqlval.Bool(x&1 == 1)
	case 6:
		return sqlval.Null
	}
	return sqlval.String_(fmt.Sprint(int8(x)))
}

// checkGroupKeys decodes data nine bytes a value — a kind byte and eight
// of payload — and numbers the values through a group table and through a
// key set of their AppendKey bytes: the ids, first-seen, and the added
// flags must agree, whether a value takes the integer table or the key set.
func checkGroupKeys(t *testing.T, data []byte) {
	t.Helper()
	var g groupTable
	var ks keySet
	for ; len(data) >= 9; data = data[9:] {
		v := groupKeyValue(data[0], binary.LittleEndian.Uint64(data[1:9]))
		id, added := g.addValue(v)
		if want, wantAdded := ks.add(v.AppendKey(nil)); id != want || added != wantAdded {
			t.Fatalf("%v (%v): group table says %d, new %v; the key set says %d, new %v", v, v.K, id, added, want, wantAdded)
		}
	}
}

// FuzzGroupKeys is FuzzKeySet's twin: a group table numbers any fuzzed
// value sequence exactly as a key set does. One seed holds every small
// value of every kind, twice over, so that each kind meets the others.
func FuzzGroupKeys(f *testing.F) {
	var every []byte
	for round := 0; round < 2; round++ {
		for x := uint64(0); x < 40; x++ {
			for kind := byte(0); kind < 8; kind++ {
				every = binary.LittleEndian.AppendUint64(append(every, kind), x*0x0101)
			}
		}
	}
	f.Add(every)
	f.Add([]byte("\x01\x01\x00\x00\x00\x00\x00\x00\x00\x05\x01\x00\x00\x00\x00\x00\x00\x00\x03\x00\x20\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("\x02\x00\x00\x00\x00\x00\x00\xf0\x7f\x02\x01\x00\x00\x00\x00\x00\xf8\x7f\x04\xff\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(checkGroupKeys)
}
