package conflictsched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDisjointKeysDoNotChain: a task on key b runs to completion while an
// earlier task on key a is still blocked mid-execution.
func TestDisjointKeysDoNotChain(t *testing.T) {
	p := NewPool(2)
	hold := make(chan struct{})
	var bRan atomic.Bool
	submit(p, []string{"a"}, false, func() { <-hold })
	submit(p, []string{"b"}, false, func() { bRan.Store(true) })
	deadline := time.Now().Add(time.Second)
	for !bRan.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !bRan.Load() {
		t.Fatal("disjoint tasks chained on each other")
	}
	close(hold)
	p.Stop()
}

// TestMultiKeyTaskJoinsAllChains: a task with footprint {a,b} waits for the
// newest task of both chains and becomes the head of both.
func TestMultiKeyTaskJoinsAllChains(t *testing.T) {
	p := NewPool(3)
	holdA := make(chan struct{})
	holdB := make(chan struct{})
	var abRan, afterARan atomic.Bool
	submit(p, []string{"a"}, false, func() { <-holdA })
	submit(p, []string{"b"}, false, func() { <-holdB })
	submit(p, []string{"a", "b"}, false, func() { abRan.Store(true) })
	// A later task on key a must chain through the multi-key task.
	submit(p, []string{"a"}, false, func() {
		if !abRan.Load() {
			t.Error("task on {a} overtook the multi-key head of its chain")
		}
		afterARan.Store(true)
	})

	time.Sleep(10 * time.Millisecond)
	if abRan.Load() {
		t.Fatal("multi-key task ran before its chains completed")
	}
	close(holdA)
	time.Sleep(10 * time.Millisecond)
	if abRan.Load() {
		t.Fatal("multi-key task ran with one chain still pending")
	}
	close(holdB)
	p.Stop()
	if !abRan.Load() || !afterARan.Load() {
		t.Fatalf("abRan=%v afterARan=%v, want both", abRan.Load(), afterARan.Load())
	}
}

// TestConcurrentSubmitIsSafe: Submit and worker completion race under
// -race; per-key ordering among one submitter's tasks is exercised by
// TestPoolPreservesPerKeyOrder — here only safety is asserted.
func TestConcurrentSubmitIsSafe(t *testing.T) {
	p := NewPool(4)
	var wg sync.WaitGroup
	var ran atomic.Int32
	keys := []string{"a", "b", "c", "d"}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				submit(p, []string{keys[(g+i)%len(keys)]}, i%17 == 0, func() { ran.Add(1) })
			}
		}(g)
	}
	wg.Wait()
	p.Stop()
	if ran.Load() != 400 {
		t.Fatalf("ran = %d, want 400", ran.Load())
	}
}
