package sqlengine

import (
	"bytes"
	"fmt"
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
