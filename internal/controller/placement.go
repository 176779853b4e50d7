package controller

// Dynamic placement (PR 10): add or remove a host for one table while the
// cluster serves live traffic. AddTableHost is the copy-to-exact procedure
// of checkpoint.go over a one-table set — a snapshot of the table from an
// enabled donor, a restore onto the (still enabled, still serving) target,
// catchUp — whose publish step flips routing inside the cluster write
// quiesce, so a read can never be served from a not-yet-caught-up copy.
// RemoveTableHost runs the opposite order: flip routing away first (under
// the same quiesce, with the typed last-host guard), drain, wait out
// in-flight reads, then drop the stale copy. An optional policy goroutine
// watches the balancer's per-table load counters and proposes moves
// automatically — the hot-shard rebalancing the paper's static RAIDb-2
// placement cannot express.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cjdbc/internal/backend"
	"cjdbc/internal/balancer"
	"cjdbc/internal/recovery"
)

// Errors reported by placement moves.
var (
	// ErrNoPlacement is returned for placement moves on a virtual database
	// under full replication, which has no explicit placement.
	ErrNoPlacement = errors.New("controller: replication policy has no explicit placement; moves need partial replication")
	// ErrAlreadyHosted is returned when AddTableHost targets a backend that
	// already hosts the table.
	ErrAlreadyHosted = errors.New("controller: backend already hosts the table")
)

// PlacementPolicy configures the load-driven placement policy. The zero
// value disables the policy goroutine. At most one move is ever in flight:
// the policy proposes synchronously, and manual moves serialize on the same
// mutex.
type PlacementPolicy struct {
	// HotTableThreshold is the read count per observe window at or above
	// which a table is hot and gains a replica on an enabled backend not yet
	// hosting it. 0 disables replication moves.
	HotTableThreshold uint64
	// ColdTableThreshold is the total traffic (reads+writes) per observe
	// window at or below which a table sheds one surplus replica. 0 disables
	// shedding.
	ColdTableThreshold uint64
	// ObserveWindow is how often the policy snapshots the load counters.
	// <= 0 disables the policy goroutine entirely.
	ObserveWindow time.Duration
	// Cooldown is the minimum time between two policy-driven moves (manual
	// moves are not throttled). 0 means a move may follow every window.
	Cooldown time.Duration
}

// placementManager executes placement moves and hosts the policy goroutine.
type placementManager struct {
	v   *VirtualDatabase
	cfg PlacementPolicy

	// moveMu serializes placement moves: max-moves-in-flight = 1, manual and
	// policy-driven alike. A second move waits, it is not rejected.
	moveMu  sync.Mutex
	ckptSeq atomic.Uint64
	moves   atomic.Int64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

func newPlacementManager(v *VirtualDatabase, cfg PlacementPolicy) *placementManager {
	return &placementManager{v: v, cfg: cfg, stop: make(chan struct{})}
}

func (m *placementManager) start() {
	if m.cfg.ObserveWindow <= 0 {
		return
	}
	if m.v.repl == nil {
		return
	}
	m.wg.Add(1)
	go m.run()
}

func (m *placementManager) close() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.wg.Wait()
}

// AddTableHost replicates a table onto one more backend under live traffic:
// bootstrap first, routing flip last. The flip happens inside the cluster
// write quiesce after a catch-up pass proves the copy has every logged write
// of the table applied and no unresolved transaction touching it — from that
// critical section on, every write includes the new host (orderedWrite
// computes its targets under the same gate) and reads may choose it. Without
// a recovery log the whole move runs inside one quiesce instead.
func (v *VirtualDatabase) AddTableHost(table, backendName string) error {
	return v.placer.addHost(table, backendName)
}

// RemoveTableHost sheds one replica of a table: routing flips away from the
// backend first (refusing, with the typed *balancer.LastHostError, to drop
// the last enabled host), its enqueued writes drain, in-flight reads routed
// under the old placement finish, and only then is the copy dropped.
func (v *VirtualDatabase) RemoveTableHost(table, backendName string) error {
	return v.placer.removeHost(table, backendName)
}

// PlacementMoves counts the completed placement moves (manual and policy).
func (v *VirtualDatabase) PlacementMoves() int64 { return v.placer.moves.Load() }

// PlacementTables lists the tables with explicit placement, or nil under
// full replication.
func (v *VirtualDatabase) PlacementTables() []string { return v.repl.Tables() }

func (m *placementManager) addHost(table, backendName string) error {
	v := m.v
	pl := v.repl
	if pl == nil {
		return ErrNoPlacement
	}
	table = strings.ToLower(table)
	b, err := v.Backend(backendName)
	if err != nil {
		return err
	}
	m.moveMu.Lock()
	defer m.moveMu.Unlock()
	// Hosted is also true for tables unknown to the placement map (hosted
	// everywhere), so past this check the table is known and has a host set.
	if pl.Hosted(table, b.Name()) {
		return fmt.Errorf("%w: %s on %s", ErrAlreadyHosted, table, b.Name())
	}
	if !b.Enabled() {
		return fmt.Errorf("controller: add host %s for %s: %w", b.Name(), table, backend.ErrDisabled)
	}
	only := func(t string) bool { return t == table }
	name := fmt.Sprintf("placement-add-%s-%s-%d", table, b.Name(), m.ckptSeq.Add(1))
	var dump *recovery.Dump
	release := noRelease
	defer func() { release() }()
	seed := func() (err error) {
		if dump, release, err = v.snapshot(name, only, b); err == nil && len(dump.Tables) == 0 {
			err = fmt.Errorf("controller: no enabled donor hosts %s: %w", table, ErrNoReintegrationSource)
		}
		return err
	}
	// The copy is invisible until the flip: the table does not route to b,
	// so restoring onto the enabled, serving backend disturbs nothing.
	restored := false
	restore := func() error {
		restored = true
		return recovery.RestoreHosted(dump, b, only)
	}
	flip := func() error {
		if !b.Enabled() {
			// The target crashed during the bootstrap; its copy is stale and
			// must not be flipped in. Re-integration will reseed it (and
			// drop the leftover copy it does not host).
			return fmt.Errorf("controller: add host for %s: backend %s: %w", table, b.Name(), backend.ErrDisabled)
		}
		pl.DeclareHost(table, b.Name())
		return nil
	}
	if v.log == nil {
		// No recovery log means no catch-up replay: dump, restore and flip
		// inside one quiesce, with no write in between.
		err = v.quiesced(func() error {
			err := seed()
			if err == nil {
				err = restore()
			}
			if err == nil {
				err = flip()
			}
			return err
		})
	} else if err = v.quiesced(seed); err == nil {
		if err = restore(); err == nil {
			err = v.catchUp(b, dump.Seq, only, flip)
		}
	}
	if err != nil {
		if restored {
			m.dropCopy(b, table)
		}
		return err
	}
	m.moves.Add(1)
	return nil
}

func (m *placementManager) removeHost(table, backendName string) error {
	v := m.v
	pl := v.repl
	if pl == nil {
		return ErrNoPlacement
	}
	table = strings.ToLower(table)
	b, err := v.Backend(backendName)
	if err != nil {
		return err
	}
	m.moveMu.Lock()
	defer m.moveMu.Unlock()
	if err := v.quiesced(func() error { return m.flipAwayAndDrain(pl, table, b) }); err != nil {
		return err
	}
	// Routing no longer includes b for this table and its enqueued writes
	// have executed; once the reads routed under the old placement finish,
	// nothing can observe the copy.
	v.sched.WaitReaders()
	m.dropCopy(b, table)
	m.moves.Add(1)
	return nil
}

// flipAwayAndDrain runs inside quiesced: it checks that another *enabled*
// backend keeps serving the table (stricter than the balancer's own
// last-host rule, which only counts declared hosts), removes the host from
// the placement atomically, and drains the backend so every write enqueued
// before the flip has executed before the copy is dropped.
func (m *placementManager) flipAwayAndDrain(pl *balancer.PartialReplication, table string, b *backend.Backend) error {
	if !pl.Hosted(table, b.Name()) {
		return fmt.Errorf("controller: backend %s does not host table %s", b.Name(), table)
	}
	remaining := false
	for _, h := range pl.Hosts(table) {
		if h == b.Name() {
			continue
		}
		if p, err := m.v.Backend(h); err == nil && p.Enabled() {
			remaining = true
			break
		}
	}
	if !remaining {
		return &balancer.LastHostError{Table: table, Host: b.Name()}
	}
	if err := pl.RemoveHost(table, b.Name()); err != nil {
		return err
	}
	b.DrainWrites()
	return nil
}

// dropCopy removes a stale or aborted table copy. If the drop fails on a
// still-enabled backend, the backend holds a partial unhosted copy it
// cannot clean up — its state is no longer trustworthy, so it is disabled
// explicitly; re-integration restores it from a donor and the restore's
// unhosted-leftover sweep removes the partial copy. Waiting for traffic or
// a probe to notice the failure instead would leave a window where the
// leftover survives a quiesce.
func (m *placementManager) dropCopy(b *backend.Backend, table string) {
	if _, err := b.DirectExec(nil, "DROP TABLE IF EXISTS "+table); err != nil && b.Enabled() {
		m.v.DisableBackend(b.Name())
	}
}

// run is the policy loop: once per observe window it snapshots (and resets)
// the load counters and proposes at most one move.
func (m *placementManager) run() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.ObserveWindow)
	defer ticker.Stop()
	var lastMove time.Time
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
		}
		loads := m.v.loads.Snapshot(true)
		if m.cfg.Cooldown > 0 && !lastMove.IsZero() && time.Since(lastMove) < m.cfg.Cooldown {
			continue
		}
		if m.propose(loads) {
			lastMove = time.Now()
		}
	}
}

// propose executes at most one policy move: replicate the hottest
// over-threshold table onto the least-loaded enabled non-host, else shed one
// replica of a cold table. Returns whether a move completed.
func (m *placementManager) propose(loads []balancer.TableLoad) bool {
	v := m.v
	pl := v.repl
	if pl == nil {
		return false
	}
	if m.cfg.HotTableThreshold > 0 {
		for _, tl := range loads { // sorted by descending reads
			if tl.Reads < m.cfg.HotTableThreshold {
				break
			}
			if target := m.spreadTarget(pl, tl.Table); target != "" {
				if err := m.addHost(tl.Table, target); err == nil {
					return true
				}
			}
		}
	}
	if m.cfg.ColdTableThreshold > 0 {
		byTable := make(map[string]balancer.TableLoad, len(loads))
		for _, tl := range loads {
			byTable[tl.Table] = tl
		}
		for _, table := range pl.Tables() {
			tl := byTable[table] // zero traffic if absent: coldest possible
			if tl.Reads+tl.Writes > m.cfg.ColdTableThreshold {
				continue
			}
			hosts := pl.Hosts(table)
			if len(hosts) < 2 {
				continue
			}
			// Shed the host that served the fewest of the table's reads.
			shed, best := "", uint64(0)
			for _, h := range hosts {
				if n := tl.ByHost[h]; shed == "" || n < best {
					shed, best = h, n
				}
			}
			if err := m.removeHost(table, shed); err == nil {
				return true
			}
		}
	}
	return false
}

// spreadTarget picks the enabled backend with the fewest executed operations
// among those not hosting the table, or "" when the table is already
// everywhere (or unknown to the placement map).
func (m *placementManager) spreadTarget(pl *balancer.PartialReplication, table string) string {
	if len(pl.Hosts(table)) == 0 {
		return "" // unknown table: implicitly hosted everywhere already
	}
	var target *backend.Backend
	for _, p := range m.v.Backends() {
		if !p.Enabled() || pl.Hosted(table, p.Name()) {
			continue
		}
		if target == nil || p.Ops() < target.Ops() {
			target = p
		}
	}
	if target == nil {
		return ""
	}
	return target.Name()
}
