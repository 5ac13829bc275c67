package events

import (
	"sync"
	"testing"
)

func drain(t *testing.T, s *Sub[int], want []Entry[int]) {
	t.Helper()
	for i, w := range want {
		got, ok := <-s.C()
		if !ok {
			t.Fatalf("channel closed after %d entries, want %d", i, len(want))
		}
		if got != w {
			t.Fatalf("entry %d = %+v, want %+v", i, got, w)
		}
	}
}

func TestPublishSubscribeOrder(t *testing.T) {
	b := NewBus[int](16, nil)
	s := b.Subscribe(0, 8)
	defer s.Close()
	for i := 1; i <= 5; i++ {
		if seq := b.Publish(i * 10); seq != int64(i) {
			t.Fatalf("Publish seq = %d, want %d", seq, i)
		}
	}
	drain(t, s, []Entry[int]{{1, 10}, {2, 20}, {3, 30}, {4, 40}, {5, 50}})
}

func TestReplayAfter(t *testing.T) {
	b := NewBus[int](16, nil)
	for i := 1; i <= 5; i++ {
		b.Publish(i * 10)
	}
	s := b.Subscribe(3, 8) // saw up to seq 3; wants 4 and 5
	defer s.Close()
	drain(t, s, []Entry[int]{{4, 40}, {5, 50}})
	b.Publish(60)
	drain(t, s, []Entry[int]{{6, 60}})
}

func TestHistoryTrimsToLimit(t *testing.T) {
	b := NewBus[int](3, nil)
	for i := 1; i <= 10; i++ {
		b.Publish(i)
	}
	got := b.History(0)
	want := []Entry[int]{{8, 8}, {9, 9}, {10, 10}}
	if len(got) != len(want) {
		t.Fatalf("History = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("History[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestSlowConsumerDropsAreAccounted(t *testing.T) {
	var hooked int64
	b := NewBus[int](16, func(n int64) { hooked += n })
	s := b.Subscribe(0, 2)
	defer s.Close()
	for i := 1; i <= 6; i++ {
		b.Publish(i)
	}
	// Buffer of 2: entries 3..6 were dropped for this subscriber.
	if got := s.Dropped(); got != 4 {
		t.Fatalf("Sub.Dropped = %d, want 4", got)
	}
	if got := b.Dropped(); got != 4 {
		t.Fatalf("Bus.Dropped = %d, want 4", got)
	}
	if hooked != 4 {
		t.Fatalf("onDrop total = %d, want 4", hooked)
	}
	drain(t, s, []Entry[int]{{1, 1}, {2, 2}})
	// The gap is visible to the consumer: next live entry jumps the seq.
	b.Publish(7)
	drain(t, s, []Entry[int]{{7, 7}})
}

func TestCloseDeliversBufferedThenCloses(t *testing.T) {
	b := NewBus[int](16, nil)
	s := b.Subscribe(0, 8)
	defer s.Close()
	b.Publish(1)
	b.Publish(2)
	b.Close()
	drain(t, s, []Entry[int]{{1, 1}, {2, 2}})
	if _, ok := <-s.C(); ok {
		t.Fatal("channel still open after Close and drain")
	}
	if seq := b.Publish(3); seq != 2 {
		t.Fatalf("Publish after Close returned seq %d, want 2", seq)
	}
}

func TestSubscribeAfterCloseReplaysHistory(t *testing.T) {
	b := NewBus[int](16, nil)
	b.Publish(1)
	b.Publish(2)
	b.Close()
	s := b.Subscribe(0, 4)
	defer s.Close()
	drain(t, s, []Entry[int]{{1, 1}, {2, 2}})
	if _, ok := <-s.C(); ok {
		t.Fatal("late subscription channel not closed")
	}
}

func TestSubCloseDetaches(t *testing.T) {
	b := NewBus[int](16, nil)
	s := b.Subscribe(0, 1)
	s.Close()
	s.Close() // idempotent
	b.Publish(1)
	if got := s.Dropped(); got != 0 {
		t.Fatalf("detached subscriber accounted a drop: %d", got)
	}
	b.Close() // must not double-close the detached channel
}

func TestConcurrentPublishSubscribe(t *testing.T) {
	b := NewBus[string](64, func(int64) {})
	const publishers, each = 4, 100
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				b.Publish("x")
			}
		}()
	}
	var cg sync.WaitGroup
	for c := 0; c < 3; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			s := b.Subscribe(0, 32)
			defer s.Close()
			var last int64
			for e := range s.C() {
				if e.Seq <= last {
					t.Errorf("out-of-order seq %d after %d", e.Seq, last)
					return
				}
				last = e.Seq
			}
		}()
	}
	wg.Wait()
	b.Close()
	cg.Wait()
	if h := b.History(0); h[len(h)-1].Seq != publishers*each {
		t.Fatalf("last seq = %d, want %d", h[len(h)-1].Seq, publishers*each)
	}
}
