package conflictsched

import (
	"runtime"
	"sync"
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
// callers must Submit in that order.
type Pool struct {
	mu          sync.Mutex
	cond        *sync.Cond
	lastByKey   map[string]*ptask
	lastBarrier *ptask
	readyHead   *ptask
	readyTail   *ptask
	inflight    int  // submitted but not finished
	stopped     bool // workers exit once the ready queue is empty
	gatesForced bool // ForceGates was called: new gates open immediately
	gated       map[*ptask]struct{}
	workers     sync.WaitGroup
}

// ptask is one submitted task with its dependency bookkeeping. All fields
// are guarded by the pool mutex.
type ptask struct {
	run        func()
	pending    int      // unfinished dependencies
	gate       bool     // readiness also requires the gate to open
	dependents []*ptask // tasks waiting on this one (one entry per key edge)
	done       bool
	queued     bool
	next       *ptask // ready-queue link
}

// NewPool creates a pool of workers resident workers; workers <= 0 means
// GOMAXPROCS.
func NewPool(workers int) *Pool {
	p := &Pool{
		lastByKey: make(map[string]*ptask),
		gated:     make(map[*ptask]struct{}),
	}
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
// predecessor has finished. run is executed exactly once, on a worker.
func (p *Pool) Submit(keys []string, barrier bool, run func()) {
	p.submit(keys, barrier, false, run)
}

// SubmitGated is Submit with an additional readiness gate: the task also
// waits for the returned release function to be called (for example by an
// engine lock ticket's grant notification). release is idempotent and safe
// to call from any goroutine, including synchronously during SubmitGated's
// caller.
func (p *Pool) SubmitGated(keys []string, barrier bool, run func()) (release func()) {
	t := p.submit(keys, barrier, true, run)
	return func() {
		p.mu.Lock()
		p.openGateLocked(t)
		p.mu.Unlock()
	}
}

func (p *Pool) submit(keys []string, barrier, gate bool, run func()) *ptask {
	t := &ptask{run: run, gate: gate}
	p.mu.Lock()
	if p.gatesForced {
		t.gate = false
	}
	if t.gate {
		p.gated[t] = struct{}{}
	}
	p.inflight++
	addDep := func(d *ptask) {
		if d != nil && !d.done {
			d.dependents = append(d.dependents, t)
			t.pending++
		}
	}
	// A barrier clears the key map, so lastByKey only ever holds
	// non-barrier tasks newer than lastBarrier.
	addDep(p.lastBarrier)
	if barrier {
		for _, d := range p.lastByKey {
			addDep(d)
		}
		p.lastByKey = make(map[string]*ptask)
		p.lastBarrier = t
	} else {
		for _, k := range keys {
			addDep(p.lastByKey[k])
			p.lastByKey[k] = t
		}
	}
	p.maybeReadyLocked(t)
	p.mu.Unlock()
	return t
}

// openGateLocked opens a task's readiness gate (idempotent).
func (p *Pool) openGateLocked(t *ptask) {
	if !t.gate {
		return
	}
	t.gate = false
	delete(p.gated, t)
	p.maybeReadyLocked(t)
}

// maybeReadyLocked pushes the task onto the ready queue when runnable.
func (p *Pool) maybeReadyLocked(t *ptask) {
	if t.pending != 0 || t.gate || t.queued || t.done {
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

// finish marks a task complete and wakes its runnable dependents.
func (p *Pool) finish(t *ptask) {
	p.mu.Lock()
	t.done = true
	p.inflight--
	for _, d := range t.dependents {
		d.pending--
		p.maybeReadyLocked(d)
	}
	t.dependents = nil
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
		p.mu.Unlock()
		t.run()
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
	for t := range p.gated {
		p.openGateLocked(t)
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
	for t := range p.gated {
		p.openGateLocked(t)
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
