package controller

// Bringing a copy to exact (§3.1): checkpoint marker in the recovery log,
// dump, restore, replay from the marker, publish — while the others keep
// serving. A backup, a restore, automatic re-integration, integrating a new
// backend and AddTableHost are all this one procedure over a table set (a
// whole backend is "all its hosted tables", a moving table is one table),
// built from three primitives that each exist once: quiesced, snapshot and
// catchUp.

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"cjdbc/internal/backend"
	"cjdbc/internal/recovery"
)

// Errors reported by checkpoint and re-integration operations.
var (
	// ErrNoRecoveryLog is returned by checkpoint operations on a virtual
	// database configured without a recovery log.
	ErrNoRecoveryLog = errors.New("controller: virtual database has no recovery log")
	// ErrCheckpointBusy is returned when write transactions stayed open for
	// the whole bounded wait: no transaction-free moment to place a marker or
	// flip routing, or a replay window whose transactions never demarcated.
	ErrCheckpointBusy = errors.New("controller: checkpoint timed out waiting for write transactions to finish")
	// ErrIncompleteDump is returned by RestoreBackend for a dump that lacks a
	// table the backend hosts and holds: restoring it would keep the
	// backend's own copy of that table and replay the log from the dump's
	// marker over it, applying every write since the marker a second time.
	ErrIncompleteDump = errors.New("controller: dump lacks a table the backend holds")
	// ErrCheckpointReused is returned for a dump whose checkpoint name has
	// since marked a later log position: replaying from the newer marker
	// would skip the writes between the two.
	ErrCheckpointReused = errors.New("controller: dump's checkpoint name now marks a later log position")
)

// quiesceWait bounds both waits of the procedure: quiesced's wait for a
// moment no write transaction spans, and catchUp's wait for the
// transactions still unresolved in its replay window to demarcate. A
// variable only so tests of the bound need not wait it out.
var quiesceWait = 10 * time.Second

// Checkpoint inserts a named checkpoint marker in the recovery log, atomic
// with respect to the cluster-wide write order (§3.1: "the checkpoint
// procedure starts by inserting a checkpoint marker in the recovery log").
func (v *VirtualDatabase) Checkpoint(name string) (uint64, error) {
	if v.log == nil {
		return 0, ErrNoRecoveryLog
	}
	ticket := v.sched.LockAllWrites()
	defer ticket.Unlock()
	return v.log.Checkpoint(name)
}

// quiesced runs fn under the cluster write quiesce at a moment no write
// transaction spans, waiting (bounded) for one: ErrCheckpointBusy when none
// came. No write can be sequenced while fn runs, and none is half-way through
// a transaction, so a marker fn logs has no transaction spanning it and a
// routing change fn makes falls between two writes for every client.
func (v *VirtualDatabase) quiesced(fn func() error) error {
	deadline := time.Now().Add(quiesceWait)
	for {
		ticket := v.sched.LockAllWrites()
		if !v.sched.AnyTxActive() {
			err := fn()
			ticket.Unlock()
			return err
		}
		ticket.Unlock()
		if time.Now().After(deadline) {
			return ErrCheckpointBusy
		}
		time.Sleep(time.Millisecond)
	}
}

// donorClaim is one donor's share of a snapshot: the tables it will dump.
type donorClaim struct {
	donor  *backend.Backend
	sp     backend.SchemaProvider
	tables map[string]bool
}

// claimDonors is the one donor-claim rule: each wanted table (nil: every
// table) is claimed on the first backend, in attach order, that is enabled,
// can be dumped, hosts the table and materializes it; exclude never donates.
// Hosting is checked because a copy RemoveTableHost has flipped away from
// but not yet dropped no longer receives writes. Wanted tables no backend
// can donate are simply not claimed (under RAIDb-2 their data comes back
// when a host does); but with peers attached and none of them able to donate
// anything, there is no live state to bring a copy to, and the claim fails
// with ErrNoReintegrationSource.
func (v *VirtualDatabase) claimDonors(wanted recovery.HostFilter, exclude *backend.Backend) ([]donorClaim, error) {
	var claims []donorClaim
	claimed := make(map[string]bool)
	peers, donors := 0, 0
	for _, p := range v.Backends() {
		if p == exclude {
			continue
		}
		peers++
		sp, ok := p.Driver().(backend.SchemaProvider)
		if !ok || !p.Enabled() {
			continue
		}
		donors++
		names, err := p.TableNames()
		if err != nil {
			continue
		}
		hosts := v.hostFilter(p)
		mine := make(map[string]bool)
		for _, t := range names {
			if !claimed[t] && (wanted == nil || wanted(t)) && (hosts == nil || hosts(t)) {
				claimed[t] = true
				mine[t] = true
			}
		}
		if len(mine) > 0 {
			claims = append(claims, donorClaim{donor: p, sp: sp, tables: mine})
		}
	}
	if donors == 0 && peers > 0 {
		return nil, ErrNoReintegrationSource
	}
	return claims, nil
}

// noRelease is the release of a window nothing pinned.
func noRelease() {}

// pinnedCheckpoint logs a marker and pins the replay window after it. It
// runs inside quiesced, which is what makes the pin enough: no write
// transaction spans the marker, so none has a write at or below it that a
// replay from the marker would still need.
func (v *VirtualDatabase) pinnedCheckpoint(name string) (uint64, func(), error) {
	seq, err := v.log.Checkpoint(name)
	if err != nil {
		return 0, nil, err
	}
	release, err := v.log.Pin(seq)
	if err != nil {
		return 0, nil, err
	}
	return seq, release, nil
}

// snapshot dumps the wanted tables at a checkpoint marker without taking any
// backend off-line. It must run inside quiesced: the claimed donors'
// enqueued writes are drained, the marker is logged and pinned (when there
// is a log; the dump's Seq is 0 otherwise), and the tables are dumped while
// writes stay blocked, so the dump holds exactly the effects of the log
// entries at or below the marker. Donors keep serving reads throughout. The
// caller releases the pin once no replay needs the window; release is never
// nil, also on error.
func (v *VirtualDatabase) snapshot(name string, wanted recovery.HostFilter, exclude *backend.Backend) (dump *recovery.Dump, release func(), err error) {
	claims, err := v.claimDonors(wanted, exclude)
	if err != nil {
		return nil, noRelease, err
	}
	for _, c := range claims {
		c.donor.DrainWrites()
	}
	var seq uint64
	release = noRelease
	if v.log != nil {
		if seq, release, err = v.pinnedCheckpoint(name); err != nil {
			return nil, noRelease, err
		}
	}
	dump = &recovery.Dump{Name: name, Seq: seq, Taken: time.Now()}
	for _, c := range claims {
		part, err := recovery.TakeDumpHosted(name, c.sp, func(t string) bool { return c.tables[t] })
		if err != nil {
			release()
			return nil, noRelease, err
		}
		dump.Tables = append(dump.Tables, part.Tables...)
	}
	sort.Slice(dump.Tables, func(i, j int) bool { return dump.Tables[i].Name < dump.Tables[j].Name })
	return dump, release, nil
}

// catchUp replays onto b the log entries after seq that touch only the given
// tables (nil: every table), then calls publish inside the cluster write
// quiesce of a pass whose cut reached the log's end — so no write lands
// between the last replayed entry and the moment publish puts the copy into
// routing. The bulk pass runs outside the quiesce on the configured number
// of parallel appliers (disjoint conflict classes replay concurrently,
// cutting the re-integration time the paper attributes to adding or
// recovering replicas); the short passes that follow run inside it. On any
// error the copy is not published and the caller must discard it or keep its
// backend disabled, because a partially replayed copy may hold conflict
// classes at different log positions.
//
// Publishing is guarded against in-flight transactions: a transaction with
// writes in the replay window but no demarcation logged yet cannot be
// replayed (§3.2 replays only committed transactions), and if the copy were
// published before the transaction ends, the eventual commit broadcast would
// reach it as a lazy-begin no-op — the copy would silently miss the
// transaction's writes forever. Under the write quiesce, an unresolved
// transaction that is inactive in the scheduler can never demarcate again
// (it was abandoned), so waiting until every unresolved transaction is
// inactive closes the window: the quiesced passes, each from the cut the
// previous one reached, replay abandoned transactions as rolled back, and
// the first that comes back with nothing unresolved publishes. The
// transactions a backend itself abandoned at disable time (killed by the
// teardown, or rejected with ErrDisabled) are a subset of the unresolved
// ones, so the same wait covers the crash-consistent disable's obligation.
// Transactions active at publish time that never wrote the tables are safe:
// any later write they issue dispatches under the published routing and
// reaches the copy live.
func (v *VirtualDatabase) catchUp(b *backend.Backend, seq uint64, tables recovery.HostFilter, publish func() error) error {
	// Bulk replay outside the write lock: may take a while on big logs.
	cut, _, _, err := recovery.ReplayPassHosted(v.log, seq, b, 0, tables, nil)
	if err != nil {
		return err
	}
	abandoned := func(tx uint64) bool { return !v.sched.TxActive(tx) }
	deadline := time.Now().Add(quiesceWait)
	for {
		ticket := v.sched.LockAllWrites()
		var unresolved []uint64
		cut, unresolved, _, err = recovery.ReplayPassHosted(v.log, cut, b, 0, tables, abandoned)
		if err == nil && len(unresolved) == 0 {
			err = publish()
		}
		ticket.Unlock()
		if err != nil || len(unresolved) == 0 {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("controller: catch-up of %s: %w", b.Name(), ErrCheckpointBusy)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// enable is the publish step of a whole backend: route reads to the tables
// its restored state actually contains (including any the placement map lost
// track of while it was down) and enable it.
func (v *VirtualDatabase) enable(b *backend.Backend) func() error {
	return func() error {
		if v.repl != nil {
			if names, err := b.TableNames(); err == nil {
				v.repl.ReattachHost(b.Name(), names)
			}
		}
		b.Enable()
		return nil
	}
}

// reseed brings a whole backend to exact from a dump taken at log position
// seq: off-line restore of the hosted subset of the dump (it may come from
// donors hosting more), removal of tables the backend materializes but does
// not host, catchUp, publish. On any failure the backend stays disabled.
func (v *VirtualDatabase) reseed(b *backend.Backend, dump *recovery.Dump, seq uint64, hosted recovery.HostFilter, publish func() error) error {
	b.Disable()
	// Let the disable teardown's rollbacks finish before the restore starts
	// dropping the tables they undo into.
	b.DrainWrites()
	b.SetRecovering()
	err := recovery.RestoreHosted(dump, b, hosted)
	if err == nil {
		dropUnhostedLeftovers(b, hosted)
		err = v.catchUp(b, seq, hosted, publish)
	}
	if err != nil {
		b.Disable()
		return err
	}
	v.health.markHealthy(b.Name())
	return nil
}

// dropUnhostedLeftovers removes tables the backend materializes but does not
// host — the stale copy a crashed RemoveTableHost could not drop, or an
// AddTableHost bootstrap aborted by the target's crash. A restored backend
// must hold exactly its hosted subset: enable reattaches every table the
// backend contains, so a leftover copy would rejoin the placement and serve
// stale data.
func dropUnhostedLeftovers(b *backend.Backend, hosted recovery.HostFilter) {
	if hosted == nil {
		return
	}
	names, err := b.TableNames()
	if err != nil {
		return
	}
	for _, t := range names {
		if !hosted(t) {
			_, _ = b.DirectExec(nil, "DROP TABLE IF EXISTS "+t)
		}
	}
}

// pinDump resolves a dump's checkpoint marker to its log position and pins
// the replay window after it. A dump that records its position must still
// own its name (ErrCheckpointReused otherwise); one from a binary that did
// not record it resolves by name alone. A window the log has forgotten is
// recovery.ErrLogTruncated.
func (v *VirtualDatabase) pinDump(d *recovery.Dump) (uint64, func(), error) {
	seq, ok, err := v.log.CheckpointSeq(d.Name)
	if err != nil {
		return 0, nil, err
	}
	if !ok {
		return 0, nil, fmt.Errorf("controller: checkpoint %q not found in recovery log", d.Name)
	}
	if d.Seq != 0 && d.Seq != seq {
		return 0, nil, fmt.Errorf("controller: dump %q taken at log position %d, the name now marks %d: %w", d.Name, d.Seq, seq, ErrCheckpointReused)
	}
	release, err := v.log.Pin(seq)
	if err != nil {
		return 0, nil, fmt.Errorf("controller: replay window of dump %q: %w", d.Name, err)
	}
	return seq, release, nil
}

// BackupBackend takes an online backup of one backend (§3.1): a checkpoint
// marker is logged, the backend is disabled (the others keep serving), its
// content is dumped, the updates that arrived during the dump are replayed
// from the recovery log, and the backend is re-enabled. The returned dump
// can later integrate new or failed backends; it is also cached as the
// virtual database's latest dump for automatic re-integration, and the log
// keeps its replay window until a newer dump replaces it.
//
// The marker is placed at a moment no write transaction spans, with the
// backend's already-enqueued writes drained, so the dump contains exactly
// the effects of the log entries at or below the marker — nothing a later
// replay would duplicate, nothing it would miss. This is the one procedure
// that takes a serving backend off-line, which is why only an operator
// invokes it: writes never stall for the dump, but reads lose the backend
// for the dump and the catch-up.
func (v *VirtualDatabase) BackupBackend(backendName, checkpointName string) (*recovery.Dump, error) {
	if v.log == nil {
		return nil, ErrNoRecoveryLog
	}
	b, err := v.Backend(backendName)
	if err != nil {
		return nil, err
	}
	sp, ok := b.Driver().(backend.SchemaProvider)
	if !ok {
		return nil, fmt.Errorf("controller: backend %s cannot be dumped (no schema provider)", backendName)
	}
	var seq uint64
	var release func()
	err = v.quiesced(func() (err error) {
		if !b.Enabled() {
			// A backend that is not serving may have missed writes: its
			// state is not the log's state at the marker.
			return fmt.Errorf("controller: back up %s: %w", backendName, backend.ErrDisabled)
		}
		b.DrainWrites()
		if seq, release, err = v.pinnedCheckpoint(checkpointName); err == nil {
			b.Disable()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	// Under partial replication the backend's engine holds exactly its
	// hosted tables, so the filter is normally a no-op — it guards against
	// leftovers from a past placement into the dump.
	hosted := v.hostFilter(b)
	dump, dumpErr := recovery.TakeDumpHosted(checkpointName, sp, hosted)
	// Catch up and re-enable even when the dump failed: writes the backend
	// missed while it was disabled are only recovered by replay.
	if err := v.catchUp(b, seq, hosted, v.enable(b)); err != nil {
		release()
		b.Disable()
		return nil, err
	}
	v.health.markHealthy(backendName)
	if dumpErr != nil {
		release()
		return nil, dumpErr
	}
	dump.Seq = seq
	v.cacheDump(dump, release)
	return dump, nil
}

// pinnedDump is a dump and the pin that keeps its replay window in the log.
type pinnedDump struct {
	dump    *recovery.Dump
	release func()
}

// cacheDump makes d the cached dump, which owns release, the pin of d's
// replay window; the dump it replaces releases its own.
func (v *VirtualDatabase) cacheDump(d *recovery.Dump, release func()) {
	if old := v.lastDump.Swap(&pinnedDump{dump: d, release: release}); old != nil {
		old.release()
	}
}

// RestoreBackend re-integrates a failed or stale backend from a dump: the
// dump is restored, the log is replayed from the dump's checkpoint, and the
// backend is re-enabled (§3: "tools to automatically re-integrate failed
// backends into a virtual database"). With a nil dump the virtual database
// finds one itself, as the re-integration supervisor does (see reintegrate).
// A dump lacking a hosted table the backend holds is refused with
// ErrIncompleteDump, one whose checkpoint name was reused with
// ErrCheckpointReused, and one whose replay window the log no longer holds
// with recovery.ErrLogTruncated, each before anything is disabled.
func (v *VirtualDatabase) RestoreBackend(backendName string, dump *recovery.Dump) error {
	if v.log == nil {
		return ErrNoRecoveryLog
	}
	b, err := v.Backend(backendName)
	if err != nil {
		return err
	}
	if dump == nil {
		return v.reintegrate(b)
	}
	if err := dumpHoldsOwn(dump, b, v.hostFilter(b)); err != nil {
		return err
	}
	return v.restore(b, dump)
}

// restore reseeds b from a dump whose replay window is in the log, pinning
// that window first.
func (v *VirtualDatabase) restore(b *backend.Backend, dump *recovery.Dump) error {
	seq, release, err := v.pinDump(dump)
	if err != nil {
		return err
	}
	defer release()
	return v.reseed(b, dump, seq, v.hostFilter(b), v.enable(b))
}

// dumpHoldsOwn is the rule an operator's dump and the cached one must pass
// before the log is replayed from their marker: they contain each hosted
// table the backend holds, or the backend's own copy of the table would take
// the log's writes since the marker twice (ErrIncompleteDump).
func dumpHoldsOwn(d *recovery.Dump, b *backend.Backend, hosted recovery.HostFilter) error {
	own, err := b.TableNames()
	if err != nil {
		return fmt.Errorf("controller: restore %s: %w", b.Name(), err)
	}
	have := make(map[string]bool, len(d.Tables))
	for i := range d.Tables {
		have[d.Tables[i].Name] = true
	}
	for _, t := range own {
		if !have[t] && (hosted == nil || hosted(t)) {
			return fmt.Errorf("controller: restore %s from dump %q without table %s: %w", b.Name(), d.Name, t, ErrIncompleteDump)
		}
	}
	return nil
}

// IntegrateBackend adds a brand-new backend and brings it up to date from a
// dump, the "bring new backends into the system" path of §3. The backend is
// attached (declared on the placement, listed, enabled — AddBackend) only as
// the publish step of its catch-up, so a failure at any point leaves the
// virtual database exactly as it was.
func (v *VirtualDatabase) IntegrateBackend(b *backend.Backend, dump *recovery.Dump) error {
	if v.log == nil {
		return ErrNoRecoveryLog
	}
	if err := v.checkDeclared(b); err != nil {
		return err
	}
	seq, release, err := v.pinDump(dump)
	if err != nil {
		return err
	}
	defer release()
	hosted := v.hostFilter(b)
	if decl := b.DeclaredTables(); len(decl) > 0 {
		// The placement learns the declaration at publish; until then the
		// declaration itself says what the backend will host.
		placed := hosted
		hosted = func(t string) bool {
			t = strings.ToLower(t)
			i := sort.SearchStrings(decl, t)
			return placed(t) || (i < len(decl) && decl[i] == t)
		}
	}
	return v.reseed(b, dump, seq, hosted, func() error { return v.AddBackend(b) })
}
