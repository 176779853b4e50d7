package conflictsched

import (
	"runtime"
	"sync"
	"time"
)

// Pool executes a totally ordered stream of submitted tasks on a fixed set
// of worker goroutines, honoring the package's conflict-class dependency
// rule without a goroutine per task: a submitted task is parked until
// every dependency has finished (dependency counting, not channel waits) and
// its readiness gate — an external ordering signal such as an engine lock
// ticket being granted — has opened, then pushed onto one shared ready
// queue. Any idle worker pulls the oldest ready task regardless of which
// conflict lane it belongs to (lane work-stealing: workers are not bound to
// lanes, so a deep lane cannot idle workers while other lanes have ready
// work).
//
// Submission order is the serialization order the pool preserves per key:
// callers must Submit in that order. The pool allocates nothing per task:
// the caller supplies each task's Task, embedded in the value that runs it.
type Pool struct {
	mu          sync.Mutex
	cond        *sync.Cond
	lastByKey   map[string]*Task // the newest unfinished task per key
	lastBarrier *Task            // the newest unfinished barrier
	readyHead   *Task
	readyTail   *Task
	gated       *Task // head of the list of tasks parked on their gate
	inflight    int   // submitted but not finished
	stopped     bool  // workers exit once the ready queue is empty
	gatesForced bool  // ForceGates was called: new gates open immediately
	workers     sync.WaitGroup
}

// Runner is the work of one pooled task.
type Runner interface {
	Run()
}

// Func adapts a function to Runner.
type Func func()

// Run calls f.
func (f Func) Run() { f() }

// Task is one submitted task's scheduling state. A caller embeds it in the
// value that carries the task's work and submits a pointer to it; a Task is
// submitted once and never reused. Once the task finishes the pool keeps no
// reference to it. All fields are guarded by the pool mutex.
type Task struct {
	runner       Runner
	keys         []string
	pending      int  // unfinished dependencies
	gate         bool // parked: readiness also requires the gate to open
	released     bool // Release was called, possibly before the submit
	depBuf       [1]*Task
	dependents   []*Task     // tasks waiting on this one (one entry per key edge)
	queued       bool        // pushed onto the ready queue; stays set once run
	next         *Task       // ready-queue link
	gprev, gnext *Task       // gated-list links
	escape       *time.Timer // opens a gate that stays shut too long
}

// NewPool creates a pool of workers resident workers; workers <= 0 means
// GOMAXPROCS.
func NewPool(workers int) *Pool {
	p := &Pool{lastByKey: make(map[string]*Task)}
	p.cond = sync.NewCond(&p.mu)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p.workers.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Submit registers the next task of the sequence with its conflict
// footprint (keys, or barrier) and schedules it once every conflicting
// predecessor has finished. r.Run is executed exactly once, on a worker.
// keys is kept until the task finishes and must not change meanwhile.
func (p *Pool) Submit(t *Task, r Runner, keys []string, barrier bool) {
	p.mu.Lock()
	p.submitLocked(t, r, keys, barrier)
	p.maybeReadyLocked(t)
	p.mu.Unlock()
}

// SubmitGated is Submit with an additional readiness gate: the task also
// waits for Release(t), for example from an engine lock ticket's grant
// notification. Release may come first, even before SubmitGated is called.
// A gate still shut after escape (> 0) opens anyway, bounding how long an
// external signal that never comes can park the task.
func (p *Pool) SubmitGated(t *Task, r Runner, keys []string, barrier bool, escape time.Duration) {
	p.mu.Lock()
	p.submitLocked(t, r, keys, barrier)
	if !t.released && !p.gatesForced {
		t.gate = true
		t.gnext = p.gated
		if p.gated != nil {
			p.gated.gprev = t
		}
		p.gated = t
		if escape > 0 {
			t.escape = time.AfterFunc(escape, func() { p.Release(t) })
		}
	}
	p.maybeReadyLocked(t)
	p.mu.Unlock()
}

// Release opens t's readiness gate. It is idempotent and safe to call from
// any goroutine, before or after t is submitted.
func (p *Pool) Release(t *Task) {
	p.mu.Lock()
	t.released = true
	p.openGateLocked(t)
	p.mu.Unlock()
}

func (p *Pool) submitLocked(t *Task, r Runner, keys []string, barrier bool) {
	t.runner, t.keys = r, keys
	t.dependents = t.depBuf[:0]
	p.inflight++
	addDep := func(d *Task) {
		if d != nil {
			d.dependents = append(d.dependents, t)
			t.pending++
		}
	}
	// A barrier clears the key map, so lastByKey only ever holds
	// non-barrier tasks newer than lastBarrier; finish removes a task from
	// both, so neither holds a finished one.
	addDep(p.lastBarrier)
	if barrier {
		for _, d := range p.lastByKey {
			addDep(d)
		}
		clear(p.lastByKey)
		p.lastBarrier = t
	} else {
		for _, k := range keys {
			addDep(p.lastByKey[k])
			p.lastByKey[k] = t
		}
	}
}

// openGateLocked opens a task's readiness gate (idempotent).
func (p *Pool) openGateLocked(t *Task) {
	if !t.gate {
		return
	}
	t.gate = false
	if t.gprev != nil {
		t.gprev.gnext = t.gnext
	} else {
		p.gated = t.gnext
	}
	if t.gnext != nil {
		t.gnext.gprev = t.gprev
	}
	t.gprev, t.gnext = nil, nil
	if t.escape != nil {
		t.escape.Stop()
		t.escape = nil
	}
	p.maybeReadyLocked(t)
}

// maybeReadyLocked pushes the task onto the ready queue when runnable.
func (p *Pool) maybeReadyLocked(t *Task) {
	if t.pending != 0 || t.gate || t.queued {
		return
	}
	t.queued = true
	if p.readyTail == nil {
		p.readyHead = t
	} else {
		p.readyTail.next = t
	}
	p.readyTail = t
	p.cond.Broadcast()
}

// finish marks a task complete, wakes its runnable dependents and drops
// every reference the pool holds to it.
func (p *Pool) finish(t *Task) {
	p.mu.Lock()
	p.inflight--
	for _, d := range t.dependents {
		d.pending--
		p.maybeReadyLocked(d)
	}
	clear(t.dependents)
	t.dependents = nil
	if p.lastBarrier == t {
		p.lastBarrier = nil
	}
	for _, k := range t.keys {
		if p.lastByKey[k] == t {
			delete(p.lastByKey, k)
		}
	}
	t.runner, t.keys = nil, nil
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *Pool) worker() {
	defer p.workers.Done()
	p.mu.Lock()
	for {
		for p.readyHead == nil && !p.stopped {
			p.cond.Wait()
		}
		t := p.readyHead
		if t == nil {
			p.mu.Unlock()
			return
		}
		p.readyHead = t.next
		if p.readyHead == nil {
			p.readyTail = nil
		}
		t.next = nil
		r := t.runner
		p.mu.Unlock()
		r.Run()
		p.finish(t)
		p.mu.Lock()
	}
}

// ForceGates opens every outstanding readiness gate and makes all future
// gates open immediately. A shutting-down owner calls it so tasks whose
// external signal will never arrive (for example an engine ticket queued
// behind a transaction that will not end) still run — and observe the
// owner's closed state — instead of parking forever.
func (p *Pool) ForceGates() {
	p.mu.Lock()
	p.gatesForced = true
	for p.gated != nil {
		p.openGateLocked(p.gated)
	}
	p.mu.Unlock()
}

// OpenGates opens every readiness gate outstanding right now, one-shot:
// unlike ForceGates it leaves future gates intact, so the pool keeps
// honoring external ordering signals afterwards. A backend's
// crash-consistent disable uses it to flush the tasks parked on tickets a
// dead transaction will never grant — they run, observe the disabled state,
// and release their pre-bound connections — while the backend itself stays
// usable for re-integration and re-enable.
func (p *Pool) OpenGates() {
	p.mu.Lock()
	for p.gated != nil {
		p.openGateLocked(p.gated)
	}
	p.mu.Unlock()
}

// Drain blocks until every submitted task has finished. The caller must
// ensure no concurrent Submit races the drain if it needs "all work done"
// semantics.
func (p *Pool) Drain() {
	p.mu.Lock()
	for p.inflight > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// Stop drains the pool and terminates its workers. The pool must not be
// used afterwards.
func (p *Pool) Stop() {
	p.mu.Lock()
	for p.inflight > 0 {
		p.cond.Wait()
	}
	p.stopped = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.workers.Wait()
}
