package controller

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cjdbc/internal/backend"
	"cjdbc/internal/recovery"
)

// ErrNoReintegrationSource is returned when bringing a copy to exact needs a
// snapshot but no enabled backend is available to dump.
var ErrNoReintegrationSource = errors.New("controller: no enabled backend to back up for re-integration")

// BackendStatus is the health monitor's view of one backend, a refinement of
// the backend's own enabled/disabled/recovering machine: it adds the suspect
// grace period before a disable and the terminal failed state after
// re-integration gives up.
type BackendStatus int

// Backend health statuses. The lifecycle is
// healthy → suspect → down → recovering → healthy, with failed as the
// terminal state when every re-integration attempt has been exhausted.
const (
	StatusHealthy BackendStatus = iota
	// StatusSuspect: one or more consecutive read/probe failures, still
	// below the disable threshold. The backend keeps serving.
	StatusSuspect
	// StatusDown: disabled; eligible for automatic re-integration.
	StatusDown
	// StatusRecovering: a re-integration attempt (restore + catch-up) is in
	// flight.
	StatusRecovering
	// StatusFailed: re-integration attempts exhausted; the backend stays
	// disabled until an operator intervenes (manual RestoreBackend).
	StatusFailed
)

// String names the status.
func (s BackendStatus) String() string {
	switch s {
	case StatusHealthy:
		return "healthy"
	case StatusSuspect:
		return "suspect"
	case StatusDown:
		return "down"
	case StatusRecovering:
		return "recovering"
	case StatusFailed:
		return "failed"
	}
	return "unknown"
}

// HealthConfig tunes failure containment and automatic re-integration. The
// zero value reproduces the pre-monitor behavior: every non-semantic read
// failure disables immediately (threshold 1), no background probing, no
// automatic re-integration.
type HealthConfig struct {
	// SuspectThreshold is the number of consecutive non-semantic read or
	// probe failures before a backend is disabled. 0 means 1 (one strike).
	// Write failures ignore the threshold and disable immediately: without
	// 2PC a backend that failed a write has diverged (§2.4.1).
	SuspectThreshold int
	// ProbeInterval enables a background prober that pings every enabled
	// backend each interval; probe failures count toward SuspectThreshold
	// and probe successes clear the suspect counter. 0 disables probing.
	ProbeInterval time.Duration
	// AutoReintegrate starts a supervisor goroutine that restores disabled
	// backends from the latest backup (or, if there is none it can use,
	// from a snapshot of the serving backends, none of which goes off-line
	// for it) and re-enables them under live traffic, with capped
	// exponential backoff between attempts.
	AutoReintegrate bool
	// ReintegrateBackoff is the delay before the first retry after a failed
	// re-integration attempt (the first attempt runs immediately on
	// disable). 0 means 50ms.
	ReintegrateBackoff time.Duration
	// ReintegrateBackoffCap bounds the exponential backoff. 0 means 2s.
	ReintegrateBackoffCap time.Duration
	// ReintegrateAttempts is the number of attempts before the backend is
	// marked failed and left alone. 0 means 8; negative means unlimited.
	ReintegrateAttempts int
}

// backendHealth is one backend's monitor state. Guarded by healthMonitor.mu.
type backendHealth struct {
	status   BackendStatus
	failures int       // consecutive read/probe failures while serving
	attempts int       // re-integration attempts since the disable
	next     time.Time // earliest time for the next attempt
}

// healthMonitor runs the per-backend health state machine: it accumulates
// read/probe failures into a suspect counter, disables a backend at the
// threshold, and (when configured) drives automatic re-integration with
// capped exponential backoff. It replaces the one-strike
// writeFailureCallback-only policy: writes still disable on first failure
// (no 2PC), but reads and probes get a grace period, and disabled backends
// come back on their own.
type healthMonitor struct {
	v   *VirtualDatabase
	cfg HealthConfig

	mu     sync.Mutex
	states map[string]*backendHealth

	wake chan struct{} // kicks the supervisor out of its backoff sleep
	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once

	backups atomic.Uint64 // names re-integration snapshots uniquely
}

func newHealthMonitor(v *VirtualDatabase, cfg HealthConfig) *healthMonitor {
	if cfg.SuspectThreshold <= 0 {
		cfg.SuspectThreshold = 1
	}
	if cfg.ReintegrateBackoff <= 0 {
		cfg.ReintegrateBackoff = 50 * time.Millisecond
	}
	if cfg.ReintegrateBackoffCap <= 0 {
		cfg.ReintegrateBackoffCap = 2 * time.Second
	}
	if cfg.ReintegrateAttempts == 0 {
		cfg.ReintegrateAttempts = 8
	}
	return &healthMonitor{
		v:      v,
		cfg:    cfg,
		states: make(map[string]*backendHealth),
		wake:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
	}
}

// start launches the background goroutines actually configured; with the
// zero config it launches nothing, so virtual databases that never asked for
// probing or auto-reintegration carry no goroutines to leak.
func (m *healthMonitor) start() {
	if m.cfg.ProbeInterval > 0 {
		m.wg.Add(1)
		go m.prober()
	}
	if m.cfg.AutoReintegrate {
		m.wg.Add(1)
		go m.supervisor()
	}
}

// close stops the monitor's goroutines and waits for them. Idempotent.
func (m *healthMonitor) close() {
	m.once.Do(func() { close(m.stop) })
	m.wg.Wait()
}

// stateLocked returns (creating if needed) a backend's state. Caller holds mu.
func (m *healthMonitor) stateLocked(name string) *backendHealth {
	st := m.states[name]
	if st == nil {
		st = &backendHealth{}
		m.states[name] = st
	}
	return st
}

// status returns the monitor's view of one backend.
func (m *healthMonitor) status(name string) BackendStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stateLocked(name).status
}

// failure records one non-semantic read or probe failure. At the threshold
// the backend is disabled; below it the backend turns suspect but keeps
// serving. Failures on backends already down/recovering/failed are the
// expected echo of the outage and are ignored.
func (m *healthMonitor) failure(name string) {
	m.mu.Lock()
	st := m.stateLocked(name)
	if st.status != StatusHealthy && st.status != StatusSuspect {
		m.mu.Unlock()
		return
	}
	st.failures++
	trip := st.failures >= m.cfg.SuspectThreshold
	if !trip {
		st.status = StatusSuspect
	}
	m.mu.Unlock()
	if trip {
		m.v.DisableBackend(name)
	}
}

// success clears the suspect counter after a successful probe.
func (m *healthMonitor) success(name string) {
	m.mu.Lock()
	st := m.stateLocked(name)
	if st.status == StatusSuspect {
		st.status = StatusHealthy
	}
	st.failures = 0
	m.mu.Unlock()
}

// markDown transitions a backend to down (idempotent) and kicks the
// supervisor. Attempts restart only when the backend was serving: a disable
// racing a recovery keeps the attempt budget it already spent.
func (m *healthMonitor) markDown(name string) {
	m.mu.Lock()
	st := m.stateLocked(name)
	switch st.status {
	case StatusHealthy, StatusSuspect:
		st.attempts = 0
		fallthrough
	case StatusRecovering:
		st.status = StatusDown
		st.failures = 0
		st.next = time.Time{} // due immediately
	}
	m.mu.Unlock()
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// markHealthy records a successful (manual or automatic) re-integration.
func (m *healthMonitor) markHealthy(name string) {
	m.mu.Lock()
	st := m.stateLocked(name)
	st.status = StatusHealthy
	st.failures = 0
	st.attempts = 0
	m.mu.Unlock()
}

// prober pings every enabled backend each interval. A probe is deliberately
// cheap (backend.Ping does not execute SQL), so the prober detects silent
// deaths between client requests without adding load.
func (m *healthMonitor) prober() {
	defer m.wg.Done()
	t := time.NewTicker(m.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
		}
		for _, b := range m.v.Backends() {
			if !b.Enabled() {
				continue
			}
			if err := b.Ping(); err != nil {
				m.failure(b.Name())
			} else {
				m.success(b.Name())
			}
		}
	}
}

// supervisor drives automatic re-integration: whenever a backend is down and
// its backoff has elapsed, it retries restore-from-latest-dump plus log
// catch-up under live traffic, until the backend is serving again or the
// attempt budget is exhausted.
func (m *healthMonitor) supervisor() {
	defer m.wg.Done()
	for {
		wait := m.nextWait()
		timer := time.NewTimer(wait)
		select {
		case <-m.stop:
			timer.Stop()
			return
		case <-m.wake:
			timer.Stop()
		case <-timer.C:
		}
		for _, b := range m.v.Backends() {
			select {
			case <-m.stop:
				return
			default:
			}
			m.maybeReintegrate(b)
		}
	}
}

// nextWait computes how long the supervisor may sleep: until the earliest
// pending retry, or a long idle tick when nothing is down.
func (m *healthMonitor) nextWait() time.Duration {
	const idle = time.Minute
	m.mu.Lock()
	defer m.mu.Unlock()
	wait := idle
	now := time.Now()
	for _, st := range m.states {
		if st.status != StatusDown {
			continue
		}
		d := st.next.Sub(now)
		if d < time.Millisecond {
			d = time.Millisecond
		}
		if d < wait {
			wait = d
		}
	}
	return wait
}

// maybeReintegrate runs one re-integration attempt if the backend is down
// and due.
func (m *healthMonitor) maybeReintegrate(b *backend.Backend) {
	name := b.Name()
	m.mu.Lock()
	st := m.stateLocked(name)
	if st.status != StatusDown || time.Now().Before(st.next) {
		m.mu.Unlock()
		return
	}
	st.status = StatusRecovering
	st.attempts++
	attempt := st.attempts
	m.mu.Unlock()

	if err := m.v.RestoreBackend(name, nil); err == nil {
		return // its publish step marked the backend healthy
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	st = m.stateLocked(name)
	if st.status != StatusRecovering {
		// A concurrent disable raced the attempt's tail; the backend is
		// down again and will be retried on its own schedule.
		return
	}
	if m.cfg.ReintegrateAttempts > 0 && attempt >= m.cfg.ReintegrateAttempts {
		st.status = StatusFailed
		return
	}
	st.status = StatusDown
	st.next = time.Now().Add(m.backoff(attempt))
}

// backoff returns the delay before the next attempt: capped exponential with
// deterministic jitter (derived from the attempt number, no randomness, so a
// seeded chaos scenario replays identically).
func (m *healthMonitor) backoff(attempt int) time.Duration {
	d := m.cfg.ReintegrateBackoff
	for i := 1; i < attempt && d < m.cfg.ReintegrateBackoffCap; i++ {
		d *= 2
	}
	if d > m.cfg.ReintegrateBackoffCap {
		d = m.cfg.ReintegrateBackoffCap
	}
	if j := d / 4; j > 0 {
		d += time.Duration(uint64(attempt)*2654435761%uint64(2*j)) - j
	}
	return d
}

// reintegrate brings one disabled backend back to exact with a dump it finds
// itself: the cached backup if it is usable, else a fresh snapshot of the
// backend's hosted tables, which is cached in turn with its pin. Neither
// takes a serving backend off-line: the snapshot stalls writes for the
// length of the dump instead (BackupBackend, which makes the opposite trade,
// is for operators).
//
// The cached dump is usable if it contains every hosted table that live
// donors would supply now (under RAIDb-2 partial replication a dump taken
// from one donor rarely does) and passes the rule RestoreBackend holds an
// operator's dump to (dumpHoldsOwn). A fresh snapshot is exempt: its marker
// has no entries for a table it leaves out — a table no enabled backend
// hosts accepts no writes. The cached dump's pin keeps its window; if a
// newer dump replaced it meanwhile and the window is gone, or its name was
// reused, the restore refuses it before disabling anything and a fresh
// snapshot is taken instead.
//
// The attempt fails fast while the backend's fault is still active (the
// restore's first DirectExec statement fails), so the supervisor's backoff
// loop is also the health probe for down backends.
func (v *VirtualDatabase) reintegrate(b *backend.Backend) error {
	hosted := v.hostFilter(b)
	if c := v.lastDump.Load(); c != nil {
		// With no donor left the cached dump is the only source.
		claims, _ := v.claimDonors(hosted, b)
		if dumpCovers(c.dump, claims) && dumpHoldsOwn(c.dump, b, hosted) == nil {
			err := v.restore(b, c.dump)
			if !errors.Is(err, recovery.ErrLogTruncated) && !errors.Is(err, ErrCheckpointReused) {
				return err
			}
		}
	}
	name := fmt.Sprintf("auto-backup-%d", v.health.backups.Add(1))
	var dump *recovery.Dump
	var release func()
	err := v.quiesced(func() (err error) {
		dump, release, err = v.snapshot(name, hosted, b)
		return err
	})
	if err != nil {
		return err
	}
	// Cached even when the restore fails: the supervisor's next attempt
	// starts from it without stalling writes for another snapshot.
	err = v.restore(b, dump)
	v.cacheDump(dump, release)
	return err
}

// dumpCovers reports whether the dump contains every claimed table.
func dumpCovers(d *recovery.Dump, claims []donorClaim) bool {
	have := make(map[string]bool, len(d.Tables))
	for i := range d.Tables {
		have[d.Tables[i].Name] = true
	}
	for _, c := range claims {
		for t := range c.tables {
			if !have[t] {
				return false
			}
		}
	}
	return true
}
