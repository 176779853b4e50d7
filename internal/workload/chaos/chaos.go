// Package chaos is a deterministic failure-injection harness: it sustains a
// seeded, randomized mixed workload (auto-commit writes, multi-statement
// transactions, reads) against a replicated virtual database while a
// scripted fault plan crashes, degrades, and heals backends, then checks
// the invariants the self-healing design promises at quiesce:
//
//   - every surviving replica is byte-identical;
//   - every re-integrated replica is byte-identical to the survivors;
//   - zero lost acks — every operation a client issued got a terminal
//     answer (success or error), none hung;
//   - zero stranded engine lock tickets and zero held locks;
//   - the cluster converged back to every backend healthy.
//
// Faults are scripted by operation count against a seeded workload, not by
// wall clock, so a scenario replays the same fault positions run after run.
// Under partial replication a script can also fire dynamic placement moves
// (AddHost/RemoveHost events), including against a backend that crashes with
// the bootstrap in flight; the quiesce check then judges hosted-subset
// identity against the live placement the moves produced.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cjdbc/internal/backend"
	"cjdbc/internal/balancer"
	"cjdbc/internal/controller"
	"cjdbc/internal/recovery"
	"cjdbc/internal/sqlengine"
	"cjdbc/internal/sqlparser"
)

// Event is one scripted fault action, fired when the cluster-wide count of
// completed client operations passes AtOp.
type Event struct {
	AtOp    int64
	Backend int // backend index the action targets
	// Plan, when non-nil, is installed on the backend (replacing any
	// previous plan).
	Plan *backend.FaultPlan
	// Heal heals the backend's installed plan instead: the crashed state
	// clears and every rule expires, so the backend starts answering again
	// and the re-integration supervisor's next attempt succeeds. A plan
	// whose crash has not fired yet is healed once it has.
	Heal bool
	// AddHost / RemoveHost fire a dynamic placement move of table c<Table>
	// targeting the backend, asynchronously (a bootstrap runs under live
	// traffic and live faults — that interleaving is the point). Move errors
	// are tolerated: a crashed target legitimately refuses a move, and the
	// quiesce consistency check judges the *live* placement instead.
	AddHost    bool
	RemoveHost bool
	Table      int
}

// Config sizes one scenario.
type Config struct {
	Backends     int
	Writers      int
	OpsPerWriter int
	Tables       int
	SeedRows     int
	Seed         int64
	Events       []Event
	Health       controller.HealthConfig
	// Placement, when non-empty, runs the scenario under RAIDb-2 partial
	// replication: Placement[ti] lists the backend indices hosting table
	// c<ti>, each backend is seeded with and declares exactly its hosted
	// tables, and the quiesce consistency check becomes hosted-subset
	// identity (every host of a table byte-identical, every non-host
	// holding nothing). Must have one non-empty entry per table.
	Placement [][]int
	// LockTimeout is the engines' lock-wait timeout (default 10s).
	LockTimeout time.Duration
	// ConvergeTimeout bounds the post-quiesce wait for every backend to
	// return to healthy (default 30s).
	ConvergeTimeout time.Duration
}

// Report is a scenario's outcome. A scenario "passes" when Err() is nil.
type Report struct {
	Ops      int64 // client operations completed (reads, writes, demarcations)
	Errors   int64 // operations that returned an error (tolerated)
	LostAcks int   // writers still blocked at quiesce: operations that never returned
	Disables int64 // backend disables observed by the controller
	// Divergence describes the first replica mismatch found; "" when every
	// backend is byte-identical.
	Divergence string
	// Moves counts the placement moves that completed (scripted moves that
	// were refused — crashed target, last host — do not count).
	Moves int64
	// StrandedTickets and HeldLocks sum the engines' leftover lock state.
	StrandedTickets int
	HeldLocks       int
	// Unconverged lists backends not healthy at the end.
	Unconverged []string
}

// Err folds the report's invariant checks into one error, nil on success.
func (r *Report) Err() error {
	switch {
	case r.LostAcks > 0:
		return fmt.Errorf("chaos: %d operations never received a terminal outcome", r.LostAcks)
	case len(r.Unconverged) > 0:
		return fmt.Errorf("chaos: backends never converged back to healthy: %v", r.Unconverged)
	case r.Divergence != "":
		return fmt.Errorf("chaos: replicas diverged: %s", r.Divergence)
	case r.StrandedTickets > 0:
		return fmt.Errorf("chaos: %d engine lock tickets stranded after quiesce", r.StrandedTickets)
	case r.HeldLocks > 0:
		return fmt.Errorf("chaos: %d engine locks still held after quiesce", r.HeldLocks)
	}
	return nil
}

// Run executes one scenario and reports the invariant checks. It builds its
// own cluster: cfg.Backends in-process engines behind one virtual database
// with a recovery log and the given health configuration, seeded with
// cfg.Tables tables of cfg.SeedRows rows. A genesis backup is taken before
// traffic starts so the re-integration supervisor always has a dump to
// restore from.
func Run(cfg Config) (*Report, error) {
	if cfg.Backends <= 0 {
		cfg.Backends = 3
	}
	if cfg.Writers <= 0 {
		cfg.Writers = 4
	}
	if cfg.OpsPerWriter <= 0 {
		cfg.OpsPerWriter = 50
	}
	if cfg.Tables <= 0 {
		cfg.Tables = 4
	}
	if cfg.SeedRows <= 0 {
		cfg.SeedRows = 8
	}
	if cfg.LockTimeout <= 0 {
		cfg.LockTimeout = 10 * time.Second
	}
	if cfg.ConvergeTimeout <= 0 {
		cfg.ConvergeTimeout = 30 * time.Second
	}
	// hostsOf maps a table index to the backends hosting it; full
	// replication means everyone hosts everything.
	hostsOf := func(ti int) []int {
		if len(cfg.Placement) == 0 {
			all := make([]int, cfg.Backends)
			for i := range all {
				all[i] = i
			}
			return all
		}
		return cfg.Placement[ti]
	}
	if len(cfg.Placement) > 0 {
		if len(cfg.Placement) != cfg.Tables {
			return nil, fmt.Errorf("chaos: placement has %d entries for %d tables", len(cfg.Placement), cfg.Tables)
		}
		for ti, hosts := range cfg.Placement {
			if len(hosts) == 0 {
				return nil, fmt.Errorf("chaos: table c%d has no hosts", ti)
			}
		}
	}

	vcfg := controller.VDBConfig{
		Name:        "chaos",
		ParallelTx:  true,
		RecoveryLog: recovery.NewMemoryLog(),
		Health:      cfg.Health,
	}
	if len(cfg.Placement) > 0 {
		vcfg.Replication = balancer.NewPartialReplication(nil)
	}
	v := controller.NewVirtualDatabase(vcfg)
	defer v.Close()

	engines := make([]*sqlengine.Engine, cfg.Backends)
	backends := make([]*backend.Backend, cfg.Backends)
	for i := range engines {
		e := sqlengine.New(fmt.Sprintf("db%d", i), sqlengine.WithLockTimeout(cfg.LockTimeout))
		s := e.NewSession()
		var hosted []string
		for ti := 0; ti < cfg.Tables; ti++ {
			mine := false
			for _, h := range hostsOf(ti) {
				if h == i {
					mine = true
					break
				}
			}
			if !mine {
				continue
			}
			if len(cfg.Placement) > 0 {
				hosted = append(hosted, fmt.Sprintf("c%d", ti))
			}
			// The secondary index is part of what a re-integrated replica
			// must get back; the identity oracle compares index sets.
			for _, ddl := range []string{
				fmt.Sprintf("CREATE TABLE c%d (id INTEGER PRIMARY KEY, v INTEGER)", ti),
				fmt.Sprintf("CREATE INDEX c%d_v ON c%d (v)", ti, ti),
			} {
				if _, err := s.ExecSQL(ddl); err != nil {
					return nil, fmt.Errorf("chaos: seed: %w", err)
				}
			}
			for r := 0; r < cfg.SeedRows; r++ {
				if _, err := s.ExecSQL(fmt.Sprintf("INSERT INTO c%d (id, v) VALUES (%d, 0)", ti, r)); err != nil {
					return nil, fmt.Errorf("chaos: seed: %w", err)
				}
			}
		}
		s.Close()
		engines[i] = e
		b := backend.New(backend.Config{
			Name:   fmt.Sprintf("db%d", i),
			Driver: &backend.EngineDriver{Engine: e},
			Tables: hosted,
		})
		backends[i] = b
		if err := v.AddBackend(b); err != nil {
			return nil, err
		}
	}
	if err := v.ValidatePlacement(); err != nil {
		return nil, err
	}
	defer func() {
		for _, b := range backends {
			b.Close()
		}
	}()

	// Genesis backup, before any traffic: the supervisor restores from it.
	if _, err := v.BackupBackend(backends[0].Name(), "genesis"); err != nil {
		return nil, fmt.Errorf("chaos: genesis backup: %w", err)
	}

	rep := &Report{}
	var done atomic.Int64 // completed client operations, the events' clock

	// Fault injector: fires each event when the operation counter passes
	// its position. Order events by AtOp so the script reads top to bottom.
	events := append([]Event(nil), cfg.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].AtOp < events[j].AtOp })
	stopInjector := make(chan struct{})
	var injectorWG, movesWG sync.WaitGroup
	injectorWG.Add(1)
	go func() {
		defer injectorWG.Done()
		for _, ev := range events {
			for done.Load() < ev.AtOp {
				select {
				case <-stopInjector:
					return
				case <-time.After(time.Millisecond):
				}
			}
			b := backends[ev.Backend]
			if ev.Heal {
				if p := b.FaultPlan(); p != nil {
					// A backend applies writes behind the client's ack, so
					// its scripted crash can come after AtOp; heal the
					// crash, not the plan before it fires.
					for p.CrashPending() {
						select {
						case <-stopInjector:
							return
						case <-time.After(time.Millisecond):
						}
					}
					p.Heal()
				}
			}
			if ev.Plan != nil {
				b.SetFaultPlan(ev.Plan)
			}
			if ev.AddHost || ev.RemoveHost {
				tbl := fmt.Sprintf("c%d", ev.Table)
				movesWG.Add(1)
				go func(add bool) {
					defer movesWG.Done()
					if add {
						_ = v.AddTableHost(tbl, b.Name())
					} else {
						_ = v.RemoveTableHost(tbl, b.Name())
					}
				}(ev.AddHost)
			}
		}
	}()

	// Writers: the seeded mixed workload. Errors are tolerated (a crash
	// window can fail an operation on every backend at once); hangs are
	// not — a writer that never finishes is a lost ack.
	var wg sync.WaitGroup
	var finished atomic.Int64
	writerDone := make(chan struct{})
	for w := 0; w < cfg.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed*1000 + int64(w)))
			s, err := v.NewSession("user", "pw")
			if err != nil {
				atomic.AddInt64(&rep.Errors, 1)
				finished.Add(1)
				return
			}
			defer finished.Add(1)
			defer s.Close()
			op := func(sql string) {
				_, err := s.Exec(sql, nil)
				if err != nil {
					atomic.AddInt64(&rep.Errors, 1)
				}
				done.Add(1)
			}
			for i := 0; i < cfg.OpsPerWriter; i++ {
				tbl := (w + rng.Intn(3)) % cfg.Tables
				switch rng.Intn(6) {
				case 0:
					op(fmt.Sprintf("INSERT INTO c%d (id, v) VALUES (%d, %d)",
						tbl, 1000+w*cfg.OpsPerWriter+i, rng.Intn(100)))
				case 1:
					op(fmt.Sprintf("DELETE FROM c%d WHERE id = %d", tbl, rng.Intn(cfg.SeedRows)))
				case 2:
					op(fmt.Sprintf("SELECT v FROM c%d WHERE id = %d", tbl, rng.Intn(cfg.SeedRows)))
				case 3:
					// Cross-table transaction; tables in index order (the
					// client-side deadlock-avoidance discipline).
					lo, hi := tbl, (tbl+1)%cfg.Tables
					if lo > hi {
						lo, hi = hi, lo
					}
					op("BEGIN")
					op(fmt.Sprintf("UPDATE c%d SET v = v + 1 WHERE id = %d", lo, rng.Intn(cfg.SeedRows)))
					op(fmt.Sprintf("UPDATE c%d SET v = %d WHERE id = %d", hi, rng.Intn(100), rng.Intn(cfg.SeedRows)))
					if rng.Intn(8) == 0 {
						op("ROLLBACK")
					} else {
						op("COMMIT")
					}
					// A failed write mid-transaction leaves the session in
					// the transaction; clear it so the next loop starts
					// clean.
					if s.InTransaction() {
						op("ROLLBACK")
					}
				default:
					op(fmt.Sprintf("UPDATE c%d SET v = %d WHERE id = %d",
						tbl, rng.Intn(100), rng.Intn(cfg.SeedRows)))
				}
			}
		}(w)
	}
	go func() { wg.Wait(); close(writerDone) }()

	// Quiesce: join the writers with a deadline. Writers that never return
	// are the lost acks the harness exists to catch.
	select {
	case <-writerDone:
	case <-time.After(cfg.ConvergeTimeout + 2*cfg.LockTimeout):
		rep.LostAcks = cfg.Writers - int(finished.Load())
	}
	close(stopInjector)
	injectorWG.Wait()
	// Join the in-flight placement moves before touching cluster state: every
	// move path is internally deadline-bounded, so this terminates.
	movesWG.Wait()
	rep.Ops = done.Load()
	rep.Moves = v.PlacementMoves()
	if rep.LostAcks > 0 {
		// Writers are still wedged; the consistency checks below would race
		// with them, and the report already fails.
		rep.Disables = v.StatsSnapshot().BackendsDisabled
		return rep, nil
	}

	// Epilogue: heal every fault so the supervisor can finish
	// re-integrating, then wait for convergence.
	for _, b := range backends {
		if p := b.FaultPlan(); p != nil {
			p.Heal()
		}
	}
	deadline := time.Now().Add(cfg.ConvergeTimeout)
	for {
		allHealthy := true
		for _, b := range backends {
			if !b.Enabled() || v.BackendHealth(b.Name()) != controller.StatusHealthy {
				allHealthy = false
				break
			}
		}
		if allHealthy {
			break
		}
		if time.Now().After(deadline) {
			for _, b := range backends {
				if st := v.BackendHealth(b.Name()); st != controller.StatusHealthy {
					rep.Unconverged = append(rep.Unconverged, fmt.Sprintf("%s=%s", b.Name(), st))
				}
			}
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	rep.Disables = v.StatsSnapshot().BackendsDisabled

	// Byte-identical replicas, re-integrated ones included. Under partial
	// replication the invariant is hosted-subset identity — judged against
	// the *live* placement, which scripted moves mutate at runtime: every
	// current host of a table matches the first host, no current non-host
	// holds the table, and the converged placement still validates.
	if len(cfg.Placement) > 0 {
		if err := v.ValidatePlacement(); err != nil {
			rep.Divergence = fmt.Sprintf("placement did not converge valid: %v", err)
		}
	}
	for ti := 0; ti < cfg.Tables && rep.Divergence == ""; ti++ {
		tbl := fmt.Sprintf("c%d", ti)
		var hosts []int
		if len(cfg.Placement) > 0 {
			for _, h := range v.Replication().Hosts(tbl) {
				var bi int
				if _, err := fmt.Sscanf(h, "db%d", &bi); err == nil {
					hosts = append(hosts, bi)
				}
			}
			sort.Ints(hosts)
			if len(hosts) == 0 {
				rep.Divergence = fmt.Sprintf("table %s has no live host", tbl)
				break
			}
		} else {
			hosts = hostsOf(ti)
		}
		hostSet := make(map[int]bool, len(hosts))
		for _, h := range hosts {
			hostSet[h] = true
		}
		want, err := sortedDump(engines[hosts[0]], tbl)
		if err != nil {
			return nil, err
		}
		for bi := 0; bi < cfg.Backends; bi++ {
			if !hostSet[bi] {
				if _, _, err := engines[bi].SnapshotTable(tbl); err == nil {
					rep.Divergence = fmt.Sprintf("db%d holds table %s it does not host", bi, tbl)
				}
				continue
			}
			got, err := sortedDump(engines[bi], tbl)
			if err != nil {
				return nil, err
			}
			if got != want {
				rep.Divergence = fmt.Sprintf("table %s differs between db%d and db%d:\n--- db%d:\n%s\n--- db%d:\n%s",
					tbl, hosts[0], bi, hosts[0], want, bi, got)
				break
			}
		}
	}

	// No stranded lock tickets, no held locks: the crash-consistent disable
	// released everything it tore down. Settle briefly — released tickets
	// pump asynchronously.
	settle := time.Now().Add(2 * time.Second)
	for {
		tickets, locks := 0, 0
		for _, e := range engines {
			tickets += e.PendingTickets()
			locks += e.HeldLocks()
		}
		rep.StrandedTickets, rep.HeldLocks = tickets, locks
		if tickets == 0 && locks == 0 || time.Now().After(settle) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	return rep, nil
}

// sortedDump renders a table's secondary indexes and its contents in
// canonical order for byte-identical comparison across engines.
func sortedDump(e *sqlengine.Engine, table string) (string, error) {
	_, rows, err := e.SnapshotTable(table)
	if err != nil {
		return "", fmt.Errorf("chaos: snapshot %s on %s: %w", table, e.Name(), err)
	}
	indexes, err := e.Indexes(table)
	if err != nil {
		return "", fmt.Errorf("chaos: indexes of %s on %s: %w", table, e.Name(), err)
	}
	var ddl strings.Builder
	for _, ix := range indexes {
		ddl.WriteString(sqlparser.Render(ix))
		ddl.WriteByte('\n')
	}
	lines := make([]string, 0, len(rows))
	for _, r := range rows {
		var b strings.Builder
		for _, v := range r {
			b.WriteString(v.Key())
			b.WriteByte('|')
		}
		lines = append(lines, b.String())
	}
	sort.Strings(lines)
	return ddl.String() + strings.Join(lines, "\n"), nil
}
