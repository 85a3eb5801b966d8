package parallel

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolRunsAllTasks(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var n atomic.Int64
	g := p.Group()
	for i := 0; i < 1000; i++ {
		g.Go(func() { n.Add(1) })
	}
	g.Wait()
	if got := n.Load(); got != 1000 {
		t.Fatalf("ran %d tasks, want 1000", got)
	}
}

func TestPoolDefaultsToGOMAXPROCS(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	// NewPool sizes the task buffer at four slots per worker.
	if cap(p.tasks) != 4*runtime.GOMAXPROCS(0) {
		t.Fatalf("task buffer %d, want 4 × GOMAXPROCS = %d", cap(p.tasks), 4*runtime.GOMAXPROCS(0))
	}
}

func TestMultipleGroupsShareOnePool(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var total atomic.Int64
	var wg sync.WaitGroup
	for e := 0; e < 8; e++ { // eight producers, as edges share the run pool
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := p.Group()
			for i := 0; i < 100; i++ {
				g.Go(func() { total.Add(1) })
			}
			g.Wait()
		}()
	}
	wg.Wait()
	if got := total.Load(); got != 800 {
		t.Fatalf("ran %d tasks, want 800", got)
	}
}

func TestGroupWaitRepanics(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	g := p.Group()
	g.Go(func() { panic("boom") })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Wait did not re-panic")
		}
		if !strings.Contains(r.(string), "boom") {
			t.Fatalf("panic value %v does not carry the cause", r)
		}
	}()
	g.Wait()
}

func TestPoolSurvivesTaskPanic(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	g := p.Group()
	g.Go(func() { panic("first") })
	func() {
		defer func() { recover() }()
		g.Wait()
	}()
	// The single worker must still be alive to run the next group.
	g2 := p.Group()
	ran := false
	g2.Go(func() { ran = true })
	g2.Wait()
	if !ran {
		t.Fatal("worker died after a panicking task")
	}
}

func TestCloseIsIdempotentAndDrains(t *testing.T) {
	p := NewPool(2)
	var n atomic.Int64
	g := p.Group()
	for i := 0; i < 50; i++ {
		g.Go(func() { n.Add(1) })
	}
	g.Wait()
	p.Close()
	p.Close()
	if n.Load() != 50 {
		t.Fatalf("drained %d tasks, want 50", n.Load())
	}
}

func TestForEachCoversRangeAtAnyWidth(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		seen := make([]atomic.Bool, 100)
		ForEach(workers, len(seen), func(i int) { seen[i].Store(true) })
		for i := range seen {
			if !seen[i].Load() {
				t.Fatalf("workers=%d: index %d not visited", workers, i)
			}
		}
	}
	ForEach(4, 0, func(int) { t.Fatal("n=0 must not invoke fn") })
}
