package queue

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestPushPopOrder(t *testing.T) {
	q := New[int](4)
	for i := 0; i < 4; i++ {
		if err := q.Push(i); err != nil {
			t.Fatalf("Push(%d): %v", i, err)
		}
	}
	for i := 0; i < 4; i++ {
		v, err := q.Pop()
		if err != nil {
			t.Fatalf("Pop: %v", err)
		}
		if v != i {
			t.Fatalf("Pop = %d, want %d", v, i)
		}
	}
}

func TestLenCap(t *testing.T) {
	q := New[string](3)
	if q.Cap() != 3 {
		t.Fatalf("Cap = %d, want 3", q.Cap())
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d, want 0", q.Len())
	}
	_ = q.Push("a")
	_ = q.Push("b")
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
	_, _ = q.Pop()
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	for _, c := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", c)
				}
			}()
			New[int](c)
		}()
	}
}

func TestPushBlocksWhenFull(t *testing.T) {
	q := New[int](1)
	if err := q.Push(1); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- q.Push(2) }()
	select {
	case <-done:
		t.Fatal("Push returned while queue was full")
	case <-time.After(20 * time.Millisecond):
	}
	if v, err := q.Pop(); err != nil || v != 1 {
		t.Fatalf("Pop = %d, %v", v, err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("blocked Push: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Push did not unblock after Pop")
	}
	if v, err := q.Pop(); err != nil || v != 2 {
		t.Fatalf("Pop = %d, %v", v, err)
	}
}

func TestPopBlocksWhenEmpty(t *testing.T) {
	q := New[int](1)
	got := make(chan int, 1)
	go func() {
		v, err := q.Pop()
		if err != nil {
			t.Errorf("Pop: %v", err)
		}
		got <- v
	}()
	select {
	case <-got:
		t.Fatal("Pop returned from empty queue")
	case <-time.After(20 * time.Millisecond):
	}
	if err := q.Push(7); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != 7 {
			t.Fatalf("Pop = %d, want 7", v)
		}
	case <-time.After(time.Second):
		t.Fatal("Pop did not unblock after Push")
	}
}

func TestCloseUnblocksProducersAndConsumers(t *testing.T) {
	q := New[int](1)
	_ = q.Push(1)
	pushErr := make(chan error, 1)
	go func() { pushErr <- q.Push(2) }()
	popErr := make(chan error, 1)
	qe := New[int](1)
	go func() {
		_, err := qe.Pop()
		popErr <- err
	}()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	qe.Close()
	if err := <-pushErr; !errors.Is(err, ErrClosed) {
		t.Fatalf("blocked Push after Close: %v, want ErrClosed", err)
	}
	if err := <-popErr; !errors.Is(err, ErrClosed) {
		t.Fatalf("blocked Pop after Close: %v, want ErrClosed", err)
	}
}

func TestCloseDrainsRemaining(t *testing.T) {
	q := New[int](4)
	_ = q.Push(1)
	_ = q.Push(2)
	q.Close()
	if !q.Closed() {
		t.Fatal("Closed = false after Close")
	}
	for want := 1; want <= 2; want++ {
		v, err := q.Pop()
		if err != nil || v != want {
			t.Fatalf("Pop = %d, %v; want %d, nil", v, err, want)
		}
	}
	if _, err := q.Pop(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Pop on drained closed queue: %v, want ErrClosed", err)
	}
	if err := q.Push(3); !errors.Is(err, ErrClosed) {
		t.Fatalf("Push on closed queue: %v, want ErrClosed", err)
	}
	q.Close() // second Close must be a no-op
}

func TestTryPushTryPop(t *testing.T) {
	q := New[int](1)
	ok, err := q.TryPush(1)
	if !ok || err != nil {
		t.Fatalf("TryPush = %v, %v", ok, err)
	}
	ok, err = q.TryPush(2)
	if ok || err != nil {
		t.Fatalf("TryPush on full = %v, %v; want false, nil", ok, err)
	}
	v, ok, err := q.TryPop()
	if !ok || err != nil || v != 1 {
		t.Fatalf("TryPop = %d, %v, %v", v, ok, err)
	}
	_, ok, err = q.TryPop()
	if ok || err != nil {
		t.Fatalf("TryPop on empty = %v, %v; want false, nil", ok, err)
	}
	q.Close()
	if _, err := q.TryPush(3); !errors.Is(err, ErrClosed) {
		t.Fatalf("TryPush on closed: %v", err)
	}
	if _, _, err := q.TryPop(); !errors.Is(err, ErrClosed) {
		t.Fatalf("TryPop on closed empty: %v", err)
	}
}

func TestPeek(t *testing.T) {
	q := New[int](2)
	if _, ok := q.Peek(); ok {
		t.Fatal("Peek on empty = ok")
	}
	_ = q.Push(5)
	_ = q.Push(6)
	v, ok := q.Peek()
	if !ok || v != 5 {
		t.Fatalf("Peek = %d, %v", v, ok)
	}
	if q.Len() != 2 {
		t.Fatalf("Peek consumed an element: Len = %d", q.Len())
	}
}

func TestDrain(t *testing.T) {
	q := New[int](8)
	for i := 0; i < 5; i++ {
		_ = q.Push(i)
	}
	got := q.Drain()
	if len(got) != 5 {
		t.Fatalf("Drain returned %d elements, want 5", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("Drain[%d] = %d, want %d", i, v, i)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len after Drain = %d", q.Len())
	}
	if got := q.Drain(); got != nil {
		t.Fatalf("Drain on empty = %v, want nil", got)
	}
	// DrainInto appends to the caller's buffer and reuses its capacity.
	buf := make([]int, 1, 8)
	buf[0] = -1
	_ = q.Push(7)
	_ = q.Push(8)
	got = q.DrainInto(buf)
	if len(got) != 3 || got[0] != -1 || got[1] != 7 || got[2] != 8 || &got[0] != &buf[0] {
		t.Fatalf("DrainInto = %v (reused buffer: %v)", got, &got[0] == &buf[0])
	}
	if got := q.DrainInto(buf[:0]); len(got) != 0 {
		t.Fatalf("DrainInto on empty = %v", got)
	}
}

func TestDrainUnblocksProducer(t *testing.T) {
	q := New[int](1)
	_ = q.Push(1)
	done := make(chan error, 1)
	go func() { done <- q.Push(2) }()
	time.Sleep(10 * time.Millisecond)
	q.Drain()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("Push did not unblock after Drain")
	}
}

func TestPushAll(t *testing.T) {
	q := New[int](8)
	n, err := q.PushAll([]int{1, 2, 3})
	if n != 3 || err != nil {
		t.Fatalf("PushAll = %d, %v", n, err)
	}
	q.Close()
	n, err = q.PushAll([]int{4})
	if n != 0 || !errors.Is(err, ErrClosed) {
		t.Fatalf("PushAll on closed = %d, %v", n, err)
	}
}

func TestPopTimeout(t *testing.T) {
	q := New[int](1)
	start := time.Now()
	_, ok, err := q.PopTimeout(30 * time.Millisecond)
	if ok || err != nil {
		t.Fatalf("PopTimeout on empty = %v, %v", ok, err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("PopTimeout returned before the deadline")
	}
	_ = q.Push(9)
	v, ok, err := q.PopTimeout(time.Second)
	if !ok || err != nil || v != 9 {
		t.Fatalf("PopTimeout = %d, %v, %v", v, ok, err)
	}
	q.Close()
	if _, _, err := q.PopTimeout(time.Millisecond); !errors.Is(err, ErrClosed) {
		t.Fatalf("PopTimeout on closed = %v", err)
	}
}

// TestConcurrentTransfer exercises the queue with many producers and
// consumers and checks that every pushed value is popped exactly once.
func TestConcurrentTransfer(t *testing.T) {
	const (
		producers   = 8
		consumers   = 8
		perProducer = 1000
	)
	q := New[int](16)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if err := q.Push(p*perProducer + i); err != nil {
					t.Errorf("Push: %v", err)
					return
				}
			}
		}(p)
	}
	var mu sync.Mutex
	seen := make(map[int]int)
	var cg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for {
				v, err := q.Pop()
				if err != nil {
					return
				}
				mu.Lock()
				seen[v]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	q.Close()
	cg.Wait()
	if len(seen) != producers*perProducer {
		t.Fatalf("received %d distinct values, want %d", len(seen), producers*perProducer)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("value %d received %d times", v, n)
		}
	}
}

// TestQueueFIFOProperty: for any sequence of values pushed by a single
// producer, a single consumer observes exactly that sequence.
func TestQueueFIFOProperty(t *testing.T) {
	f := func(vs []int16) bool {
		if len(vs) == 0 {
			return true
		}
		q := New[int16](3) // small capacity forces blocking interleavings
		go func() {
			for _, v := range vs {
				_ = q.Push(v)
			}
			q.Close()
		}()
		for i := 0; ; i++ {
			v, err := q.Pop()
			if err != nil {
				return i == len(vs)
			}
			if i >= len(vs) || v != vs[i] {
				return false
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
