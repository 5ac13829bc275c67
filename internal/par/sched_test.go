package par

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// buildSumDAG registers a balanced binary reduction over n leaf values
// and returns the slot holding the root sum after Run.
func buildSumDAG(s *Sched, n int) *int64 {
	type nodeRes struct {
		id  TaskID
		val *int64
	}
	level := make([]nodeRes, n)
	for i := 0; i < n; i++ {
		v := new(int64)
		x := int64(i)
		id := s.Add(func() error {
			*v = x
			return nil
		})
		level[i] = nodeRes{id: id, val: v}
	}
	for len(level) > 1 {
		var next []nodeRes
		for i := 0; i+1 < len(level); i += 2 {
			l, r := level[i], level[i+1]
			v := new(int64)
			id := s.Add(func() error {
				*v = *l.val + *r.val
				return nil
			}, l.id, r.id)
			next = append(next, nodeRes{id: id, val: v})
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return level[0].val
}

func TestSchedTreeReduction(t *testing.T) {
	const n = 257
	want := int64(n*(n-1)) / 2
	for _, workers := range []int{1, 2, 4, 8} {
		s := NewSched()
		root := buildSumDAG(s, n)
		if err := s.Run(context.Background(), workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if *root != want {
			t.Fatalf("workers=%d: sum = %d, want %d", workers, *root, want)
		}
	}
}

func TestSchedFlatFanOut(t *testing.T) {
	var count int64
	s := NewSched()
	for i := 0; i < 200; i++ {
		s.Add(func() error {
			atomic.AddInt64(&count, 1)
			return nil
		})
	}
	if err := s.Run(context.Background(), 8); err != nil {
		t.Fatal(err)
	}
	if count != 200 {
		t.Fatalf("ran %d of 200 tasks", count)
	}
}

func TestSchedDependencyOrder(t *testing.T) {
	// A chain a -> b -> c must observe strict ordering on any worker
	// count; each task verifies its predecessor's side effect.
	for _, workers := range []int{1, 3} {
		var stage int32
		s := NewSched()
		a := s.Add(func() error {
			if !atomic.CompareAndSwapInt32(&stage, 0, 1) {
				return errors.New("a ran out of order")
			}
			return nil
		})
		b := s.Add(func() error {
			if !atomic.CompareAndSwapInt32(&stage, 1, 2) {
				return errors.New("b ran before a")
			}
			return nil
		}, a)
		s.Add(func() error {
			if !atomic.CompareAndSwapInt32(&stage, 2, 3) {
				return errors.New("c ran before b")
			}
			return nil
		}, b)
		if err := s.Run(context.Background(), workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if stage != 3 {
			t.Fatalf("workers=%d: stage = %d", workers, stage)
		}
	}

	// Among ready tasks the order is the stack's, which one worker makes
	// observable: tasks ready from the start run in registration order,
	// and what a completion enables — in registration order too — runs
	// before any of them that is still waiting.
	var ran []string
	s := NewSched()
	add := func(name string, deps ...TaskID) TaskID {
		return s.Add(func() error { ran = append(ran, name); return nil }, deps...)
	}
	a := add("a")
	b := add("b")
	add("c")
	d := add("d", a)
	add("e", b)
	add("f", b)
	add("g", d)
	if err := s.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(ran, " "), "a d g b e f c"; got != want {
		t.Fatalf("serial order %q, want %q", got, want)
	}
}

func TestSchedErrorSkipsDependents(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var ran int32
		s := NewSched()
		bad := s.Add(func() error { return boom })
		s.Add(func() error {
			atomic.AddInt32(&ran, 1)
			return nil
		}, bad)
		err := s.Run(context.Background(), workers)
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		if ran != 0 {
			t.Fatalf("workers=%d: dependent of failed task ran", workers)
		}
	}
}

func TestSchedContextCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		s := NewSched()
		first := s.Add(func() error {
			cancel() // cancel mid-run; later tasks must stop dispatching
			return nil
		})
		for i := 0; i < 64; i++ {
			first = s.Add(func() error { return nil }, first)
		}
		if err := s.Run(ctx, workers); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

func TestSchedEmptyAndReuse(t *testing.T) {
	s := NewSched()
	if err := s.Run(context.Background(), 4); err != nil {
		t.Fatalf("empty sched: %v", err)
	}
	s2 := NewSched()
	s2.Add(func() error { return nil })
	if err := s2.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if err := s2.Run(context.Background(), 1); err == nil {
		t.Fatal("second Run accepted")
	}
}

func TestSchedInvalidDepPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("forward dependency accepted")
		}
	}()
	s := NewSched()
	s.Add(func() error { return nil }, TaskID(3))
}

func BenchmarkSchedTreeReduction(b *testing.B) {
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := NewSched()
				buildSumDAG(s, 1024)
				if err := s.Run(context.Background(), workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
