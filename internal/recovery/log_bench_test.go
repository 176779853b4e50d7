package recovery

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

// BenchmarkAppendDisjointClasses measures what the one sequencer mutex costs:
// 8 goroutines append under 8 disjoint conflict classes, so nothing but the
// log orders them. ns/op is wall time per append across all 8.
func BenchmarkAppendDisjointClasses(b *testing.B) {
	stores := []struct {
		name string
		open func(b *testing.B) (Log, error)
	}{
		{"memory", func(*testing.B) (Log, error) { return NewMemoryLog(), nil }},
		{"file", func(b *testing.B) (Log, error) { return OpenFileLog(filepath.Join(b.TempDir(), "recovery.log")) }},
	}
	for _, st := range stores {
		b.Run(st.name, func(b *testing.B) {
			l, err := st.open(b)
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			const writers = 8
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					e := Entry{Class: ClassWrite, SQL: "UPDATE t SET a = 1", Tables: []string{fmt.Sprintf("t%d", w)}, V: FootprintVersion}
					for i := w; i < b.N; i += writers {
						if _, err := l.Append(e); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}
