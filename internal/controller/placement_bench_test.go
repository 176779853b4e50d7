package controller

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"cjdbc/internal/backend"
	"cjdbc/internal/balancer"
	"cjdbc/internal/recovery"
)

// BenchmarkHotTableAddHost measures the tentpole's payoff: a hot table
// hosted by one costed backend (simulated service time, and a two-connection
// pool bounding how many reads it serves at once) saturates that machine; after AddTableHost copies it to
// a second backend and flips routing, the read-one balancer spreads the
// same offered load over both hosts. hosts=1 is the before, hosts=2 the
// after — the ratio of their throughputs is the benefit of the move.
func BenchmarkHotTableAddHost(b *testing.B) {
	for _, hosts := range []int{1, 2} {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			const readDelay = 200 * time.Microsecond
			const seedRows = 256
			v := NewVirtualDatabase(VDBConfig{
				Name:        "bench",
				Replication: balancer.NewPartialReplication(nil),
				ParallelTx:  true,
				RecoveryLog: recovery.NewMemoryLog(),
			})
			defer v.Close()
			var backends []*backend.Backend
			for i := 0; i < 2; i++ {
				name := fmt.Sprintf("db%d", i)
				var hosted []string
				if i == 0 {
					hosted = []string{"hot"}
				}
				e := seedPartialEngine(b, name, hosted, seedRows)
				bk := backend.New(backend.Config{
					Name:     name,
					Driver:   &backend.EngineDriver{Engine: e},
					Tables:   hosted,
					MaxConns: 2,
				})
				bk.SetFaultPlan(backend.NewFaultPlan(backend.Slow(backend.OpRead, readDelay)))
				defer bk.Close()
				if err := v.AddBackend(bk); err != nil {
					b.Fatal(err)
				}
				backends = append(backends, bk)
			}
			if err := v.ValidatePlacement(); err != nil {
				b.Fatal(err)
			}
			if hosts == 2 {
				// The move under test: bootstrap db1's copy, flip routing.
				if err := v.AddTableHost("hot", "db1"); err != nil {
					b.Fatal(err)
				}
			}
			var before int64
			for _, bk := range backends {
				before += bk.Ops()
			}
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				s, err := v.NewSession("user", "pw")
				if err != nil {
					b.Error(err)
					return
				}
				defer s.Close()
				rng := rand.New(rand.NewSource(1))
				for pb.Next() {
					sql := fmt.Sprintf("SELECT v FROM hot WHERE id = %d", rng.Intn(seedRows))
					if _, err := s.Exec(sql, nil); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			var after int64
			for _, bk := range backends {
				after += bk.Ops()
			}
			b.ReportMetric(float64(after-before)/float64(b.N), "backendops/op")
		})
	}
}
