// Package balancer implements C-JDBC's read load-balancing algorithms
// (round robin, weighted round robin, least pending requests first) and the
// table placement (per-table partial replication, whose nil value is full
// replication) that decides which backends can serve a read and which must
// apply a write (§2.4.3).
package balancer

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"cjdbc/internal/backend"
)

// ErrNoBackend is returned when no enabled backend can serve the request.
var ErrNoBackend = errors.New("balancer: no enabled backend can execute this request")

// NoHostError reports that routing found no enabled backend hosting every
// table a statement references — the RAIDb-2 failure mode where placement,
// not load or health, makes a request unservable (a join across tables
// placed on disjoint backends, or every host of a table being down). It
// matches ErrNoBackend under errors.Is so existing fallbacks keep working,
// and errors.As extracts the offending footprint.
type NoHostError struct {
	Tables []string
}

// Error names the unhostable footprint.
func (e *NoHostError) Error() string {
	return "balancer: no enabled backend hosts all of [" + strings.Join(e.Tables, ", ") + "]"
}

// Unwrap makes errors.Is(err, ErrNoBackend) hold.
func (e *NoHostError) Unwrap() error { return ErrNoBackend }

// LastHostError rejects a placement change that would leave a table with no
// host at all. A table below one copy is unservable for both reads and
// writes, so RemoveHost refuses the move instead of letting routing degrade
// to NoHostError later.
type LastHostError struct {
	Table string
	Host  string
}

// Error names the protected copy.
func (e *LastHostError) Error() string {
	return fmt.Sprintf("balancer: cannot remove %s from %s: it is the table's last host", e.Host, e.Table)
}

// Balancer picks one backend among the candidates able to serve a read.
type Balancer interface {
	Name() string
	Choose(candidates []*backend.Backend) (*backend.Backend, error)
}

// RoundRobin cycles through candidates.
type RoundRobin struct {
	ctr atomic.Uint64
}

// Name returns "round-robin".
func (*RoundRobin) Name() string { return "round-robin" }

// Choose picks the next backend in rotation.
func (rr *RoundRobin) Choose(cands []*backend.Backend) (*backend.Backend, error) {
	if len(cands) == 0 {
		return nil, ErrNoBackend
	}
	n := rr.ctr.Add(1) - 1
	return cands[n%uint64(len(cands))], nil
}

// WeightedRoundRobin cycles through candidates proportionally to their
// weights.
type WeightedRoundRobin struct {
	ctr atomic.Uint64
}

// Name returns "weighted-round-robin".
func (*WeightedRoundRobin) Name() string { return "weighted-round-robin" }

// Choose picks the next backend in the weight-expanded rotation.
func (w *WeightedRoundRobin) Choose(cands []*backend.Backend) (*backend.Backend, error) {
	if len(cands) == 0 {
		return nil, ErrNoBackend
	}
	total := 0
	for _, b := range cands {
		total += b.Weight()
	}
	if total == 0 {
		return nil, ErrNoBackend
	}
	x := int(w.ctr.Add(1)-1) % total
	for _, b := range cands {
		x -= b.Weight()
		if x < 0 {
			return b, nil
		}
	}
	return cands[len(cands)-1], nil
}

// LeastPending sends the request to the backend with the fewest pending
// queries, the paper's Least Pending Requests First policy and the one used
// for all TPC-W measurements.
type LeastPending struct {
	tie atomic.Uint64 // rotates among tied candidates
}

// Name returns "least-pending-requests-first".
func (*LeastPending) Name() string { return "least-pending-requests-first" }

// tieSlots is how many candidates' gauges Choose keeps on its stack; a
// longer candidate list takes one allocation.
const tieSlots = 16

// Choose picks the candidate with the lowest pending-request gauge. Each
// gauge is read once, so the candidates it counts as tied are the ones it
// chooses among; the rotation counter then picks the n-th of the k ties, so
// ties take turns evenly.
func (lp *LeastPending) Choose(cands []*backend.Backend) (*backend.Backend, error) {
	if len(cands) == 0 {
		return nil, ErrNoBackend
	}
	var slots [tieSlots]int
	pending := slots[:0]
	if len(cands) > tieSlots {
		pending = make([]int, 0, len(cands))
	}
	best, ties := -1, 0
	for _, b := range cands {
		p := b.Pending()
		pending = append(pending, p)
		switch {
		case best < 0 || p < best:
			best, ties = p, 1
		case p == best:
			ties++
		}
	}
	n := 0
	if ties > 1 {
		n = int((lp.tie.Add(1) - 1) % uint64(ties))
	}
	for i, p := range pending {
		if p != best {
			continue
		}
		if n == 0 {
			return cands[i], nil
		}
		n--
	}
	panic("balancer: a counted tie was not found")
}

// New constructs a balancer by policy name. Custom balancers can be used by
// implementing the Balancer interface directly (the paper allows
// user-defined strategies).
func New(name string) (Balancer, error) {
	switch strings.ToLower(name) {
	case "", "round-robin", "roundrobin", "rr":
		return &RoundRobin{}, nil
	case "weighted-round-robin", "wrr":
		return &WeightedRoundRobin{}, nil
	case "least-pending-requests-first", "least-pending", "lprf":
		return &LeastPending{}, nil
	}
	return nil, fmt.Errorf("balancer: unknown policy %q", name)
}

// PartialReplication maps tables to the backends hosting them, configured
// per table and updated dynamically on CREATE/DROP (§2.4.3). Declared
// (pinned) tables — those in the initial map or added through DeclareHost —
// keep their operator-chosen placement: a CREATE observed while some host
// is down must not shrink the replica set, and a replayed DROP must not
// erase where the table belongs on re-create.
//
// A nil *PartialReplication is full replication (RAIDb-1): every table on
// every backend. Its routing methods answer "every enabled backend", Hosted
// is true, Hosts and Tables are nil and NoteCreate/NoteDrop do nothing, so
// the controller calls them without a check; the mutators (DeclareHost,
// ReattachHost, RemoveHost, Validate) need a non-nil placement.
type PartialReplication struct {
	mu     sync.RWMutex
	hosts  map[string]map[string]bool // table -> backend name set
	pinned map[string]bool            // tables with operator-declared placement
}

// NewPartialReplication builds a policy from a table -> backend-names map.
// Every table in the map is pinned.
func NewPartialReplication(tables map[string][]string) *PartialReplication {
	p := &PartialReplication{
		hosts:  make(map[string]map[string]bool, len(tables)),
		pinned: make(map[string]bool, len(tables)),
	}
	for t, bs := range tables {
		set := make(map[string]bool, len(bs))
		for _, b := range bs {
			set[b] = true
		}
		p.hosts[strings.ToLower(t)] = set
		p.pinned[strings.ToLower(t)] = true
	}
	return p
}

// ReadCandidates returns enabled backends hosting every referenced table.
// Unknown tables (e.g. just-created temporary tables of another session)
// exclude a backend unless it hosts them. The result may be all itself:
// callers must not modify it.
func (p *PartialReplication) ReadCandidates(tables []string, all []*backend.Backend) []*backend.Backend {
	if p == nil {
		return enabledOf(all)
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	var out []*backend.Backend
	for _, b := range all {
		if !b.Enabled() {
			continue
		}
		ok := true
		for _, t := range tables {
			set, known := p.hosts[t]
			if !known {
				// Tables absent from the schema map cannot be served.
				ok = false
				break
			}
			if !set[b.Name()] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, b)
		}
	}
	return out
}

// WriteTargets returns enabled backends hosting at least one affected table.
// For a CREATE of a not-yet-known table the hosts of the other referenced
// tables decide (CREATE TEMPORARY TABLE ... AS SELECT under partial
// replication runs only where its sources live, which is what limits the
// TPC-W best-seller temp table to two backends in Figure 10). The result is
// in the order of all and may be all itself: callers must not modify it.
func (p *PartialReplication) WriteTargets(tables []string, all []*backend.Backend) []*backend.Backend {
	if p == nil {
		return enabledOf(all)
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	known := false
	var out []*backend.Backend
	for _, b := range all {
		if !b.Enabled() {
			continue
		}
		hit := false
		for _, t := range tables {
			set, k := p.hosts[t]
			if !k {
				continue
			}
			known = true
			if set[b.Name()] {
				hit = true
			} else {
				// A backend missing any referenced known table cannot
				// execute the statement.
				hit = false
				break
			}
		}
		if hit {
			out = append(out, b)
		}
	}
	if !known {
		// Pure DDL creating a brand-new table: send everywhere.
		return enabledOf(all)
	}
	return out
}

// NoteCreate records a new table's hosts. Pinned tables are left alone:
// their placement is declared, not observed.
func (p *PartialReplication) NoteCreate(table string, hosts []string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	t := strings.ToLower(table)
	if p.pinned[t] {
		return
	}
	set := make(map[string]bool, len(hosts))
	for _, h := range hosts {
		set[h] = true
	}
	p.hosts[t] = set
}

// NoteDrop removes a dynamically gathered table. A pinned table keeps its
// declared placement across DROP/CREATE cycles.
func (p *PartialReplication) NoteDrop(table string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	t := strings.ToLower(table)
	if p.pinned[t] {
		return
	}
	delete(p.hosts, t)
}

// DeclareHost pins a table to an additional host; the declared placement
// grows as backends declaring the table join the cluster.
func (p *PartialReplication) DeclareHost(table, host string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t := strings.ToLower(table)
	set := p.hosts[t]
	if set == nil {
		set = make(map[string]bool, 1)
		p.hosts[t] = set
	}
	set[host] = true
	p.pinned[t] = true
}

// Hosted reports whether a backend hosts a table. Tables absent from the
// placement map were created before gathering or dropped since — they count
// as hosted everywhere, matching full-replication behavior.
func (p *PartialReplication) Hosted(table, host string) bool {
	if p == nil {
		return true
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	set, known := p.hosts[strings.ToLower(table)]
	if !known {
		return true
	}
	return set[host]
}

// ReattachHost records that a backend hosts the given tables — called after
// re-integration with the tables the restored state actually contains, so
// reads route to the backend again even if the placement map drifted while
// it was down.
func (p *PartialReplication) ReattachHost(host string, tables []string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, table := range tables {
		t := strings.ToLower(table)
		set := p.hosts[t]
		if set == nil {
			set = make(map[string]bool, 1)
			p.hosts[t] = set
		}
		set[host] = true
	}
}

// RemoveHost atomically removes a backend from a table's host set. It fails
// with a *LastHostError if the removal would leave the table hostless, and
// with a plain error if the backend does not host the table (or the table
// is unknown, i.e. implicitly hosted everywhere). The check-and-remove runs
// under one lock acquisition so concurrent removals of the same table
// cannot race past the last-host guard. The table stays pinned: its
// (shrunken) placement remains operator-declared.
func (p *PartialReplication) RemoveHost(table, host string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	t := strings.ToLower(table)
	set, known := p.hosts[t]
	if !known || !set[host] {
		return fmt.Errorf("balancer: backend %s does not host table %s", host, t)
	}
	if len(set) == 1 {
		return &LastHostError{Table: t, Host: host}
	}
	delete(set, host)
	return nil
}

// Validate checks the declared placement against the cluster's backend
// names: every declared table needs at least one host, and every host must
// name a configured backend. A table with no host could never execute a
// statement anywhere; a typo'd backend name would silently shrink a replica
// set.
func (p *PartialReplication) Validate(backends []string) error {
	known := make(map[string]bool, len(backends))
	for _, b := range backends {
		known[b] = true
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	tables := make([]string, 0, len(p.hosts))
	for t := range p.hosts {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		set := p.hosts[t]
		if len(set) == 0 {
			return fmt.Errorf("balancer: table %q is hosted by no backend", t)
		}
		for h := range set {
			if !known[h] {
				return fmt.Errorf("balancer: table %q lists unknown backend %q", t, h)
			}
		}
	}
	return nil
}

// Hosts returns the sorted backend names hosting a table: empty for a table
// unknown to the placement, nil under full replication (meaning "all").
func (p *PartialReplication) Hosts(table string) []string {
	if p == nil {
		return nil
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	set := p.hosts[strings.ToLower(table)]
	out := make([]string, 0, len(set))
	for h := range set {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// Tables returns the sorted known table names, nil under full replication.
func (p *PartialReplication) Tables() []string {
	if p == nil {
		return nil
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]string, 0, len(p.hosts))
	for t := range p.hosts {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// enabledOf returns the enabled backends of all: all itself when every one
// is enabled, so the common case copies nothing.
func enabledOf(all []*backend.Backend) []*backend.Backend {
	n := 0
	for _, b := range all {
		if b.Enabled() {
			n++
		}
	}
	if n == len(all) {
		return all
	}
	out := make([]*backend.Backend, 0, n)
	for _, b := range all {
		if b.Enabled() {
			out = append(out, b)
		}
	}
	return out
}
