package groupcomm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func collectN(t *testing.T, m *Member, n int) []Message {
	t.Helper()
	out := make([]Message, 0, n)
	timeout := time.After(2 * time.Second)
	for len(out) < n {
		select {
		case msg := <-m.Deliver():
			out = append(out, msg)
		case <-timeout:
			t.Fatalf("timed out after %d/%d messages", len(out), n)
		}
	}
	return out
}

func drainViews(m *Member) {
	for {
		select {
		case <-m.Views():
		default:
			return
		}
	}
}

func TestBroadcastReachesAllIncludingSender(t *testing.T) {
	g := NewGroup("vdb")
	a, _ := g.Join("a")
	b, _ := g.Join("b")
	defer a.Leave()
	defer b.Leave()

	if _, err := a.Broadcast("write", []byte("w1")); err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Member{a, b} {
		msgs := collectN(t, m, 1)
		if msgs[0].Kind != "write" || string(msgs[0].Payload) != "w1" || msgs[0].Sender != "a" {
			t.Fatalf("member %s got %+v", m.Name(), msgs[0])
		}
	}
}

func TestTotalOrderUnderConcurrency(t *testing.T) {
	g := NewGroup("vdb")
	const members = 4
	const perSender = 50
	ms := make([]*Member, members)
	for i := range ms {
		m, err := g.Join(fmt.Sprintf("c%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = m
	}

	var wg sync.WaitGroup
	for i, m := range ms {
		wg.Add(1)
		go func(i int, m *Member) {
			defer wg.Done()
			for j := 0; j < perSender; j++ {
				if _, err := m.Broadcast("w", []byte(fmt.Sprintf("%d-%d", i, j))); err != nil {
					t.Errorf("broadcast: %v", err)
				}
			}
		}(i, m)
	}
	wg.Wait()

	total := members * perSender
	var reference []uint64
	for i, m := range ms {
		msgs := collectN(t, m, total)
		seqs := make([]uint64, total)
		for k, msg := range msgs {
			seqs[k] = msg.Seq
		}
		if i == 0 {
			reference = seqs
			continue
		}
		for k := range seqs {
			if seqs[k] != reference[k] {
				t.Fatalf("member %s delivery order diverges at %d: %d vs %d",
					m.Name(), k, seqs[k], reference[k])
			}
		}
	}
	// Sequence numbers are strictly increasing.
	for k := 1; k < len(reference); k++ {
		if reference[k] <= reference[k-1] {
			t.Fatalf("sequence not increasing at %d", k)
		}
	}
	for _, m := range ms {
		m.Leave()
	}
}

func TestFIFOPerSender(t *testing.T) {
	g := NewGroup("vdb")
	a, _ := g.Join("a")
	b, _ := g.Join("b")
	defer b.Leave()
	for j := 0; j < 20; j++ {
		a.Broadcast("w", []byte{byte(j)})
	}
	a.Leave()
	msgs := collectN(t, b, 20)
	for j, m := range msgs {
		if int(m.Payload[0]) != j {
			t.Fatalf("FIFO violated at %d: %d", j, m.Payload[0])
		}
	}
}

func TestViewsOnJoinAndLeave(t *testing.T) {
	g := NewGroup("vdb")
	a, _ := g.Join("a")
	v := <-a.Views()
	if v.Members[0] != "a" || len(v.Members) != 1 {
		t.Fatalf("initial view: %+v", v)
	}
	b, _ := g.Join("b")
	v = <-a.Views()
	if len(v.Members) != 2 || !v.Contains("b") {
		t.Fatalf("view after join: %+v", v)
	}
	if v.Coordinator() != "a" {
		t.Errorf("coordinator = %q", v.Coordinator())
	}
	drainViews(b)
	b.Leave()
	v = <-a.Views()
	if len(v.Members) != 1 || v.Contains("b") {
		t.Fatalf("view after leave: %+v", v)
	}
	a.Leave()
}

func TestCrashInstallsNewView(t *testing.T) {
	g := NewGroup("vdb")
	a, _ := g.Join("a")
	b, _ := g.Join("b")
	// Views reach a's channel asynchronously, so a non-blocking drain can
	// miss the one that adds b; wait for it, and the next view is the crash's.
	for v := range a.Views() {
		if v.Contains("b") {
			break
		}
	}
	b.Kill()
	select {
	case v := <-a.Views():
		if v.Contains("b") {
			t.Fatalf("crashed member still in view: %+v", v)
		}
	case <-time.After(time.Second):
		t.Fatal("no view change after crash")
	}
	// Group still works.
	if _, err := a.Broadcast("w", nil); err != nil {
		t.Fatal(err)
	}
	collectN(t, a, 1)
	a.Leave()
}

func TestBroadcastAfterLeaveFails(t *testing.T) {
	g := NewGroup("vdb")
	a, _ := g.Join("a")
	a.Leave()
	if _, err := a.Broadcast("w", nil); !errors.Is(err, ErrLeft) {
		t.Fatalf("broadcast after leave: %v", err)
	}
	a.Leave() // idempotent
}

func TestDuplicateJoinRejected(t *testing.T) {
	g := NewGroup("vdb")
	a, _ := g.Join("a")
	defer a.Leave()
	if _, err := g.Join("a"); err == nil {
		t.Fatal("duplicate join accepted")
	}
}

func TestViewOrderedRelativeToMessages(t *testing.T) {
	// A member joining after N broadcasts must not receive those messages:
	// its first event is its join view.
	g := NewGroup("vdb")
	a, _ := g.Join("a")
	defer a.Leave()
	for i := 0; i < 5; i++ {
		a.Broadcast("w", nil)
	}
	b, _ := g.Join("b")
	defer b.Leave()
	v := <-b.Views()
	if len(v.Members) != 2 {
		t.Fatalf("join view: %+v", v)
	}
	select {
	case m := <-b.Deliver():
		t.Fatalf("late joiner received pre-join message %+v", m)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestRegistrySharesGroups(t *testing.T) {
	r := NewRegistry()
	g1 := r.Get("vdb")
	g2 := r.Get("vdb")
	if g1 != g2 {
		t.Fatal("registry returned distinct groups for one name")
	}
	if r.Get("other") == g1 {
		t.Fatal("distinct names share a group")
	}
}

func TestCurrentView(t *testing.T) {
	g := NewGroup("vdb")
	a, _ := g.Join("b-member")
	c, _ := g.Join("a-member")
	defer a.Leave()
	defer c.Leave()
	v := g.CurrentView()
	if len(v.Members) != 2 || v.Members[0] != "a-member" {
		t.Fatalf("current view: %+v", v)
	}
}
