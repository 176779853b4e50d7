package recovery

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cjdbc/internal/sqlengine"
)

// slowExecutor adds a fixed round trip to every statement, standing in for a
// log database on another machine (Figure 2).
type slowExecutor struct {
	engineExecutor
	rtt time.Duration
}

func (x slowExecutor) ExecSQL(sql string) (int64, error) {
	time.Sleep(x.rtt)
	return x.engineExecutor.ExecSQL(sql)
}

// BenchmarkAppendDisjointClasses measures what the one sequencer mutex costs:
// 8 goroutines append under 8 disjoint conflict classes, so nothing but the
// log orders them. ns/op is wall time per append across all 8. The sql-1ms
// case is the one that shows it: the mutex is held across the round trip.
func BenchmarkAppendDisjointClasses(b *testing.B) {
	stores := []struct {
		name string
		open func(b *testing.B) (Log, error)
	}{
		{"memory", func(*testing.B) (Log, error) { return NewMemoryLog(), nil }},
		{"file", func(b *testing.B) (Log, error) { return OpenFileLog(filepath.Join(b.TempDir(), "recovery.log")) }},
		{"sql", func(*testing.B) (Log, error) {
			return NewSQLLog(engineExecutor{sqlengine.New("logdb")}, "recovery_log")
		}},
		{"sql-1ms", func(*testing.B) (Log, error) {
			return NewSQLLog(slowExecutor{engineExecutor{sqlengine.New("logdb")}, time.Millisecond}, "recovery_log")
		}},
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
