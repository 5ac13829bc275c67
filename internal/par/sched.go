package par

import (
	"context"
	"fmt"
	"sync"
)

// TaskID identifies a task registered with a Sched. IDs are handed out
// sequentially by Add, so a task can only depend on tasks registered
// before it — which makes every Sched acyclic by construction.
type TaskID int

// Sched runs a DAG of tasks over a bounded worker pool: a task becomes
// runnable once all of its dependencies have finished, and independent
// runnable tasks execute concurrently. The post-order profile merges of
// progressive alignment are the motivating shape (disjoint guide-tree
// subtrees merge in parallel), but the scheduler is general: any
// register-then-run DAG works, including flat fan-outs (tasks with no
// dependencies).
//
// The ready set is a stack: the tasks a completion enables run before
// any task that was ready earlier, and the tasks ready from the start
// run in registration order. A reduction tree registered depth-first is
// therefore also walked depth-first — a worker finishes the subtree it
// is in before it opens another — so the results waiting for their
// sibling number O(depth·workers). A queue would run every leaf, then
// every parent of two leaves, and keep O(tasks) results alive, which
// for guide-tree merges is a profile each.
//
// Usage: register every task with Add (dependencies must be TaskIDs
// returned by earlier Add calls), then call Run once. Task bodies
// communicate results through memory they close over; the scheduler
// guarantees a happens-before edge from each dependency's completion to
// its dependents' start, so no extra synchronisation is needed for
// dep-to-dependent hand-offs.
type Sched struct {
	tasks []schedTask
	ran   bool
}

type schedTask struct {
	fn   func() error
	deps []TaskID
}

// NewSched returns an empty scheduler.
func NewSched() *Sched { return &Sched{} }

// Add registers a task that runs after all deps have completed and
// returns its TaskID. Deps must have been returned by earlier Add calls
// on the same Sched; anything else panics (a programming error, like an
// out-of-range slice index).
func (s *Sched) Add(fn func() error, deps ...TaskID) TaskID {
	id := TaskID(len(s.tasks))
	for _, d := range deps {
		if d < 0 || d >= id {
			panic(fmt.Sprintf("par: task %d depends on invalid task %d", id, d))
		}
	}
	s.tasks = append(s.tasks, schedTask{fn: fn, deps: deps})
	return id
}

// Len returns the number of registered tasks.
func (s *Sched) Len() int { return len(s.tasks) }

// Run executes the DAG on `workers` workers (<= 0 selects
// DefaultWorkers) and blocks until every task has finished, a task
// returns an error, or ctx is cancelled. The first task error is
// returned and no new tasks start after it (already-running tasks finish
// first); dependents of a failed task never run. On cancellation Run
// stops dispatching and returns ctx.Err() — like ForCtx, a cancelled
// context is reported even when every task happened to finish first.
// Run may be called once.
//
// The calling goroutine is one of the workers: with workers == 1 the
// DAG runs inline, in the one order the stack rule allows.
func (s *Sched) Run(ctx context.Context, workers int) error {
	if s.ran {
		return fmt.Errorf("par: Sched.Run called twice")
	}
	s.ran = true
	n := len(s.tasks)
	if n == 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}

	// The ready set is a stack whose top is its last element. Pushing
	// reverses, so the tasks are walked backwards: the initial stack,
	// and each list of dependents pushed in its order, then pop in
	// registration order.
	waits := make([]int, n)
	dependents := make([][]int, n)
	ready := make([]int, 0, n)
	for i := n - 1; i >= 0; i-- {
		deps := s.tasks[i].deps
		waits[i] = len(deps)
		for _, d := range deps {
			dependents[d] = append(dependents[d], i)
		}
		if len(deps) == 0 {
			ready = append(ready, i)
		}
	}
	var (
		mu       sync.Mutex // guards everything below, and ready and waits
		wake     = sync.NewCond(&mu)
		stopped  bool
		firstErr error
		pending  = n
	)
	halt := func(err error) { // mu held
		if firstErr == nil {
			firstErr = err
		}
		stopped = true
		wake.Broadcast()
	}
	// Workers between tasks see a cancellation themselves; this wakes
	// the ones waiting for a task.
	defer context.AfterFunc(ctx, func() {
		mu.Lock()
		halt(nil) // Run reports ctx.Err()
		mu.Unlock()
	})()
	work := func() {
		mu.Lock()
		defer mu.Unlock()
		for {
			for len(ready) == 0 && !stopped {
				wake.Wait()
			}
			if stopped || ctx.Err() != nil {
				return
			}
			i := ready[len(ready)-1]
			ready = ready[:len(ready)-1]
			mu.Unlock()
			err := s.tasks[i].fn()
			mu.Lock()
			if err != nil {
				halt(err)
				return
			}
			for _, d := range dependents[i] {
				if waits[d]--; waits[d] == 0 {
					ready = append(ready, d)
					wake.Signal()
				}
			}
			if pending--; pending == 0 {
				halt(nil)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	mu.Lock() // the cancellation hook may still be running
	err := firstErr
	mu.Unlock()
	if err != nil {
		return err
	}
	return ctx.Err()
}
