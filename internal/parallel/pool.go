// Package parallel provides the bounded worker pool that executes the
// simulator's per-device local updates. One pool is shared across all edges
// of a run so the hardware parallelism budget (GOMAXPROCS by default) is a
// global property of the process, not multiplied by the edge count.
//
// The pool is deliberately decoupled from determinism: callers are expected
// to make all random decisions *before* dispatching work and to reduce
// results back in a fixed order, so the pool only ever executes pure
// (per-task-state) computations whose outputs do not depend on scheduling.
// See DESIGN.md "Concurrency & determinism model".
package parallel

import (
	"fmt"
	"runtime"
	"sync"
)

// Pool is a fixed-size worker pool. Tasks submitted through a Group run on
// one of the pool's goroutines; the pool never grows or shrinks.
type Pool struct {
	tasks  chan func()
	wg     sync.WaitGroup
	closed bool
}

// NewPool returns a pool with the given number of workers. workers <= 0
// selects runtime.GOMAXPROCS(0).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		// A small buffer lets producers batch submissions without a
		// rendezvous per task; the bound keeps memory finite.
		tasks: make(chan func(), 4*workers),
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for fn := range p.tasks {
				fn()
			}
		}()
	}
	return p
}

// QueueDepth returns the number of submitted tasks not yet picked up by a
// worker. It is an instantaneous reading of the submission buffer — a
// telemetry observation, not a synchronization primitive.
func (p *Pool) QueueDepth() int {
	if p == nil {
		return 0
	}
	return len(p.tasks)
}

// Close stops the workers after draining all submitted tasks. The pool must
// not be used afterwards; Close is idempotent.
func (p *Pool) Close() {
	if p == nil || p.closed {
		return
	}
	p.closed = true
	close(p.tasks)
	p.wg.Wait()
}

// Group collects a batch of tasks submitted to one pool so the producer can
// wait for exactly its own tasks. Multiple groups may use the same pool
// concurrently (each edge of a time step owns one group).
type Group struct {
	pool *Pool
	wg   sync.WaitGroup

	mu       sync.Mutex
	panicked any
	hasPanic bool
}

// Group returns a new task group on the pool.
func (p *Pool) Group() *Group { return &Group{pool: p} }

// Go submits one task. The call blocks only when the pool's submission
// buffer is full (i.e. all workers are busy and the backlog is at capacity),
// which bounds the number of in-flight closures.
func (g *Group) Go(fn func()) {
	g.wg.Add(1)
	g.pool.tasks <- func() {
		defer g.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				g.mu.Lock()
				if !g.hasPanic {
					g.hasPanic, g.panicked = true, r
				}
				g.mu.Unlock()
			}
		}()
		fn()
	}
}

// Wait blocks until every task submitted via Go has finished. If any task
// panicked, Wait re-panics with the first recovered value so the failure
// surfaces on the producer goroutine instead of silently killing a worker.
func (g *Group) Wait() {
	g.wg.Wait()
	if g.hasPanic {
		panic(fmt.Sprintf("parallel: task panicked: %v", g.panicked))
	}
}

// ForEach executes fn(0), …, fn(n-1) on up to workers concurrent goroutines
// and returns when all calls have finished. workers <= 1 (or n <= 1) runs
// inline on the caller's goroutine, making the serial path trivially
// deterministic. ForEach spawns transient goroutines rather than using a
// Pool, so it is safe to call where no pool exists (public evaluation
// entry points) and from inside pool workers without risk of starvation.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next int
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		i := next
		next++
		return i
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := claim()
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
