package backend

import (
	"errors"
	"sync"
	"time"
)

// ErrInjected is the default error delivered by fault-plan rules that do
// not carry their own.
var ErrInjected = errors.New("backend: injected fault")

// OpKind classifies one backend operation for fault-plan matching. The
// checks sit at the driver seam — immediately before a connection would
// execute — so every path (pooled reads, transactional writes, the
// auto-commit worker pool, health probes, and the DirectExec traffic of
// checkpointing and recovery) observes the same plan.
type OpKind int

// Operation kinds a fault rule can match.
const (
	OpAny OpKind = iota // matches every kind
	OpRead
	OpWrite
	OpCommit
	OpRollback
	OpProbe  // health-monitor ping
	OpDirect // DirectExec: checkpoint dumps and recovery replay
)

// Op describes one backend operation presented to the fault plan.
type Op struct {
	Kind  OpKind
	Table string // first conflict-class table; "" when unknown
	TxID  uint64 // 0 = auto-commit
}

// Rule is one scripted fault. A rule counts the operations it matches and
// fires deterministically by position in that count — no randomness, so a
// chaos scenario driven by a seeded workload replays the same faults.
type Rule struct {
	Kind   OpKind // OpAny matches every kind
	Table  string // "" matches every table
	AfterN int    // fire from the Nth matching op on (1-based; 0 = first)
	Times  int    // number of firings; 0 = unlimited
	// Err is the injected error (ErrInjected when nil and the rule is not
	// latency-only). A rule with Err nil and Latency set delays the op
	// without failing it — the slow-replica skew fault.
	Err     error
	Latency time.Duration
	// Crash flips the whole plan into the crashed state when this rule
	// fires: every subsequent operation of any kind fails until Heal. A
	// Crash rule on OpCommit is the crash-mid-transaction fault.
	Crash bool

	seen  int
	fired int
}

func (r *Rule) matches(op Op) bool {
	if r.Kind != OpAny && r.Kind != op.Kind {
		return false
	}
	return r.Table == "" || r.Table == op.Table
}

// FaultPlan is a scripted, deterministic sequence of faults injected at a
// backend's driver seam. Rules are evaluated in order; the first rule that
// fires decides the operation's fate. Counters are plan-internal, so a plan
// is single-use: install a fresh plan per scenario.
type FaultPlan struct {
	mu    sync.Mutex
	rules []*Rule
	down  bool
	err   error
}

// NewFaultPlan builds a plan from rules, evaluated in the given order.
func NewFaultPlan(rules ...*Rule) *FaultPlan {
	return &FaultPlan{rules: rules}
}

// Heal clears the crashed state and expires every rule, so subsequent
// operations succeed. The re-integration supervisor's restore attempts
// start succeeding once a scenario heals the backend.
func (p *FaultPlan) Heal() {
	p.mu.Lock()
	p.down = false
	for _, r := range p.rules {
		if r.Times == 0 {
			r.Times = -1 // expire unlimited rules
		}
		r.fired = r.Times
	}
	p.mu.Unlock()
}

// CrashPending reports whether a Crash rule can still fire: the plan is
// not crashed and some Crash rule has firings left.
func (p *FaultPlan) CrashPending() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down {
		return false
	}
	for _, r := range p.rules {
		if r.Crash && (r.Times == 0 || r.fired < r.Times) {
			return true
		}
	}
	return false
}

// Down reports whether the plan is in the crashed state.
func (p *FaultPlan) Down() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.down
}

// check runs one operation through the plan, returning the latency to
// apply and the error to inject (nil = proceed). The caller sleeps outside
// the plan mutex.
func (p *FaultPlan) check(op Op) (time.Duration, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down {
		return 0, p.err
	}
	for _, r := range p.rules {
		if !r.matches(op) {
			continue
		}
		r.seen++
		after := r.AfterN
		if after <= 0 {
			after = 1
		}
		if r.seen < after {
			continue
		}
		if r.Times != 0 && r.fired >= r.Times {
			continue
		}
		r.fired++
		err := r.Err
		if err == nil && r.Latency == 0 {
			err = ErrInjected
		}
		if r.Crash {
			p.down = true
			p.err = err
			if p.err == nil {
				p.err = ErrInjected
			}
		}
		return r.Latency, err
	}
	return 0, nil
}

// FailNth fails the nth matching operation of the given kind, once.
func FailNth(kind OpKind, n int, err error) *Rule {
	return &Rule{Kind: kind, AfterN: n, Times: 1, Err: err}
}

// FailTable fails every write touching the table.
func FailTable(table string, err error) *Rule {
	return &Rule{Kind: OpWrite, Table: table, Err: err}
}

// FailOnce fails the first matching operation, then heals.
func FailOnce(err error) *Rule {
	return &Rule{Times: 1, Err: err}
}

// CrashOnCommit crashes the backend at its nth commit — the
// crash-mid-transaction fault: the transaction's earlier writes applied,
// its commit is lost, and every later operation fails until Heal.
func CrashOnCommit(n int, err error) *Rule {
	return &Rule{Kind: OpCommit, AfterN: n, Times: 1, Err: err, Crash: true}
}

// Slow delays every matching operation without failing it (slow-replica
// skew).
func Slow(kind OpKind, d time.Duration) *Rule {
	return &Rule{Kind: kind, Latency: d}
}
