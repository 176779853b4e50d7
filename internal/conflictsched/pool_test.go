package conflictsched

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// submit runs fn as a fresh task.
func submit(p *Pool, keys []string, barrier bool, fn func()) {
	p.Submit(new(Task), Func(fn), keys, barrier)
}

// submitGated runs fn as a fresh gated task and returns its release.
func submitGated(p *Pool, keys []string, fn func()) (release func()) {
	t := new(Task)
	p.SubmitGated(t, Func(fn), keys, false, 0)
	return func() { p.Release(t) }
}

// TestPoolPreservesPerKeyOrder: tasks sharing a key run in submission
// order; the recorded sequence restricted to any key must be ascending.
func TestPoolPreservesPerKeyOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		var mu sync.Mutex
		order := make(map[string][]int)
		const n = 200
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("k%d", i%4)
			i := i
			submit(p, []string{key}, false, func() {
				mu.Lock()
				order[key] = append(order[key], i)
				mu.Unlock()
			})
		}
		p.Stop()
		for key, seq := range order {
			for j := 1; j < len(seq); j++ {
				if seq[j] < seq[j-1] {
					t.Fatalf("workers=%d: key %s ran out of order: %v", workers, key, seq)
				}
			}
		}
	}
}

// TestPoolBarrierSplitsPhases: everything before a barrier finishes before
// it runs, and everything after waits for it.
func TestPoolBarrierSplitsPhases(t *testing.T) {
	p := NewPool(4)
	var before, after atomic.Int32
	var barrierSawBefore, afterSawBarrier atomic.Int32
	for i := 0; i < 16; i++ {
		submit(p, []string{fmt.Sprintf("k%d", i)}, false, func() {
			time.Sleep(time.Millisecond)
			before.Add(1)
		})
	}
	var barrierDone atomic.Bool
	submit(p, nil, true, func() {
		barrierSawBefore.Store(before.Load())
		barrierDone.Store(true)
	})
	for i := 0; i < 16; i++ {
		submit(p, []string{fmt.Sprintf("k%d", i)}, false, func() {
			if barrierDone.Load() {
				afterSawBarrier.Add(1)
			}
			after.Add(1)
		})
	}
	p.Stop()
	if barrierSawBefore.Load() != 16 {
		t.Fatalf("barrier ran after %d/16 predecessors", barrierSawBefore.Load())
	}
	if afterSawBarrier.Load() != 16 {
		t.Fatalf("%d/16 successors ran before the barrier finished", afterSawBarrier.Load())
	}
	if after.Load() != 16 {
		t.Fatalf("after = %d", after.Load())
	}
}

// TestPoolGateParksTask: a gated task does not run — and does not occupy a
// worker — until its gate is released, even on a one-worker pool.
func TestPoolGateParksTask(t *testing.T) {
	p := NewPool(1)
	var gatedRan, freeRan atomic.Bool
	release := submitGated(p, []string{"hot"}, func() { gatedRan.Store(true) })
	submit(p, []string{"cold"}, false, func() { freeRan.Store(true) })
	deadline := time.Now().Add(2 * time.Second)
	for !freeRan.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !freeRan.Load() {
		t.Fatal("a parked gated task starved the single worker")
	}
	if gatedRan.Load() {
		t.Fatal("gated task ran before its gate was released")
	}
	release()
	release() // idempotent
	p.Stop()
	if !gatedRan.Load() {
		t.Fatal("gated task never ran after release")
	}
}

// TestPoolForceGates: ForceGates opens outstanding gates and makes new
// gates open immediately, so a shutdown can always drain.
func TestPoolForceGates(t *testing.T) {
	p := NewPool(2)
	var ran atomic.Int32
	submitGated(p, []string{"a"}, func() { ran.Add(1) })
	submitGated(p, []string{"b"}, func() { ran.Add(1) })
	p.ForceGates()
	submitGated(p, []string{"c"}, func() { ran.Add(1) }) // post-force gate opens immediately
	p.Stop()
	if ran.Load() != 3 {
		t.Fatalf("ran = %d, want 3", ran.Load())
	}
}

// TestPoolDrainWaitsForAll: Drain returns only after every submitted task
// (including chained dependents) finished.
func TestPoolDrainWaitsForAll(t *testing.T) {
	p := NewPool(3)
	var ran atomic.Int32
	for i := 0; i < 50; i++ {
		submit(p, []string{"k"}, false, func() { ran.Add(1) })
	}
	p.Drain()
	if ran.Load() != 50 {
		t.Fatalf("Drain returned with %d/50 done", ran.Load())
	}
	p.Stop()
}

// TestPoolOpenGatesIsOneShot: OpenGates flushes every currently parked
// gated task but, unlike ForceGates, leaves the gating mechanism intact —
// a gate created afterwards parks its task again until released.
func TestPoolOpenGatesIsOneShot(t *testing.T) {
	p := NewPool(2)
	var ran atomic.Int32
	submitGated(p, []string{"a"}, func() { ran.Add(1) })
	submitGated(p, []string{"b"}, func() { ran.Add(1) })
	p.OpenGates()
	p.Drain()
	if ran.Load() != 2 {
		t.Fatalf("OpenGates flushed %d/2 parked tasks", ran.Load())
	}
	var lateRan atomic.Bool
	release := submitGated(p, []string{"c"}, func() { lateRan.Store(true) })
	time.Sleep(10 * time.Millisecond)
	if lateRan.Load() {
		t.Fatal("a gate created after OpenGates did not park its task")
	}
	release()
	p.Stop()
	if !lateRan.Load() {
		t.Fatal("released task never ran")
	}
}

// TestGatedSubmitAllocatesNothing: a gated submit and its release allocate
// nothing beyond the caller's task — no closure, no gate object, no
// dependents slice for the chain a hot key builds, and nothing on the
// worker that runs it.
func TestGatedSubmitAllocatesNothing(t *testing.T) {
	p := NewPool(1)
	defer p.Stop()
	keys := []string{"hot"}
	noop := Func(func() {})
	allocs := testing.AllocsPerRun(1000, func() {
		task := new(Task)
		p.SubmitGated(task, noop, keys, false, 0)
		p.Release(task)
	})
	p.Drain()
	if allocs > 1 {
		t.Fatalf("a gated submit and its release cost %.1f allocations, want 1 (the task)", allocs)
	}
}

// TestFinishedTaskIsUnreferenced: once a task finishes the pool holds no
// pointer to it, so the value embedding it (and whatever that references)
// is collectable while the key's chain stays open for the next task.
func TestFinishedTaskIsUnreferenced(t *testing.T) {
	p := NewPool(2)
	defer p.Stop()
	var collected atomic.Int32
	const n = 50
	for i := 0; i < n; i++ {
		task := new(Task)
		runtime.SetFinalizer(task, func(*Task) { collected.Add(1) })
		if i%2 == 0 {
			p.Submit(task, Func(func() {}), []string{"k"}, i%10 == 0)
		} else {
			p.SubmitGated(task, Func(func() {}), []string{"k"}, false, time.Hour)
			p.Release(task)
		}
	}
	p.Drain()
	for i := 0; i < 100 && collected.Load() < n; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := collected.Load(); got != n {
		t.Fatalf("%d of %d finished tasks collected", got, n)
	}
}
