// Package queue provides the bounded blocking queues that connect the
// stages of a DLBooster pipeline.
//
// The paper's host bridger (§3.4) is built around pairs of bounded FIFO
// queues: the Free_Batch_Queue / Full_Batch_Queue pair between FPGAReader
// and Dispatcher, and the per-GPU Trans Queues between the Dispatcher and
// each compute engine. All of them need the same semantics: multiple
// producers and consumers, blocking push when full, blocking pop when
// empty, and a way to shut the pipeline down cleanly. Queue implements
// exactly that; Ring is the non-concurrent building block it sits on.
package queue

import (
	"errors"
	"sync"
	"time"
)

// ErrClosed is returned by operations on a queue that has been closed.
// A closed queue rejects new elements but still drains the ones it holds.
var ErrClosed = errors.New("queue: closed")

// Queue is a bounded, blocking, multi-producer multi-consumer FIFO queue.
//
// The zero value is not usable; construct with New. All methods are safe
// for concurrent use.
type Queue[T any] struct {
	mu       sync.Mutex
	notEmpty *sync.Cond
	notFull  *sync.Cond
	ring     Ring[T]
	closed   bool
}

// New returns an empty queue with the given capacity. It panics if
// capacity is not positive: an unbuffered handoff is a channel's job, and
// every queue in the pipeline represents real buffering (batch buffers in
// flight), so a zero capacity is always a configuration bug.
func New[T any](capacity int) *Queue[T] {
	if capacity <= 0 {
		panic("queue: capacity must be positive")
	}
	q := &Queue[T]{ring: NewRing[T](capacity)}
	q.notEmpty = sync.NewCond(&q.mu)
	q.notFull = sync.NewCond(&q.mu)
	return q
}

// Cap returns the queue's fixed capacity.
func (q *Queue[T]) Cap() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.ring.Cap()
}

// Len returns the number of elements currently queued.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.ring.Len()
}

// Closed reports whether Close has been called.
func (q *Queue[T]) Closed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

// Close marks the queue closed. Blocked producers are woken and receive
// ErrClosed; blocked consumers are woken and drain the remaining elements,
// after which Pop reports ErrClosed. Closing twice is a no-op.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
}

// Push appends v, blocking while the queue is full. It returns ErrClosed
// if the queue is closed before space becomes available.
func (q *Queue[T]) Push(v T) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.ring.Full() && !q.closed {
		q.notFull.Wait()
	}
	if q.closed {
		return ErrClosed
	}
	q.ring.PushBack(v)
	q.notEmpty.Signal()
	return nil
}

// TryPush appends v without blocking. It returns false if the queue is
// full, and ErrClosed if the queue is closed.
func (q *Queue[T]) TryPush(v T) (bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false, ErrClosed
	}
	if q.ring.Full() {
		return false, nil
	}
	q.ring.PushBack(v)
	q.notEmpty.Signal()
	return true, nil
}

// Pop removes and returns the oldest element, blocking while the queue is
// empty. Once the queue is closed and drained it returns ErrClosed.
func (q *Queue[T]) Pop() (T, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.ring.Empty() && !q.closed {
		q.notEmpty.Wait()
	}
	if q.ring.Empty() {
		var zero T
		return zero, ErrClosed
	}
	v := q.ring.PopFront()
	q.notFull.Signal()
	return v, nil
}

// TryPop removes and returns the oldest element without blocking. The
// boolean is false when the queue is empty; the error is ErrClosed only
// when the queue is both empty and closed.
func (q *Queue[T]) TryPop() (T, bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.ring.Empty() {
		var zero T
		if q.closed {
			return zero, false, ErrClosed
		}
		return zero, false, nil
	}
	v := q.ring.PopFront()
	q.notFull.Signal()
	return v, true, nil
}

// Peek returns the oldest element without removing it. The boolean is
// false when the queue is empty. Peek mirrors the free_batch_queue.peak()
// probe in Algorithm 1 of the paper: FPGAReader checks for an available
// buffer before deciding whether to drain completions first.
func (q *Queue[T]) Peek() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.ring.Empty() {
		var zero T
		return zero, false
	}
	return q.ring.Front(), true
}

// PopTimeout behaves like Pop but gives up after d, returning ok=false.
// err is ErrClosed only when the queue is closed and drained.
//
// sync.Cond has no timed wait, so the deadline is delivered by a timer
// that raises a per-call flag under the lock and broadcasts: the waiter
// sleeps on the condition variable like Pop does (no busy-polling, no
// wakeups while nothing changes) and re-checks the flag alongside the
// usual predicates.
func (q *Queue[T]) PopTimeout(d time.Duration) (v T, ok bool, err error) {
	if d <= 0 {
		return q.TryPop()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	var timedOut bool
	timer := time.AfterFunc(d, func() {
		q.mu.Lock()
		timedOut = true
		q.mu.Unlock()
		q.notEmpty.Broadcast()
	})
	defer timer.Stop()
	for q.ring.Empty() && !q.closed && !timedOut {
		q.notEmpty.Wait()
	}
	if !q.ring.Empty() {
		v = q.ring.PopFront()
		q.notFull.Signal()
		return v, true, nil
	}
	if q.closed {
		return v, false, ErrClosed
	}
	return v, false, nil
}

// PushTimeout behaves like Push but gives up after d, returning
// ok=false with a nil error. err is ErrClosed when the queue closes
// before space appears. The FPGAReader uses it to bound submission to a
// wedged decoder whose command FIFO never drains. The deadline is
// delivered the same way as PopTimeout's.
func (q *Queue[T]) PushTimeout(v T, d time.Duration) (ok bool, err error) {
	if d <= 0 {
		return q.TryPush(v)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	var timedOut bool
	timer := time.AfterFunc(d, func() {
		q.mu.Lock()
		timedOut = true
		q.mu.Unlock()
		q.notFull.Broadcast()
	})
	defer timer.Stop()
	for q.ring.Full() && !q.closed && !timedOut {
		q.notFull.Wait()
	}
	if q.closed {
		return false, ErrClosed
	}
	if !q.ring.Full() {
		q.ring.PushBack(v)
		q.notEmpty.Signal()
		return true, nil
	}
	return false, nil
}

// Drain removes and returns every element currently queued, without
// blocking. It corresponds to fpga_channel.drain_out() in Algorithm 1:
// collect all completions that have accumulated so far.
func (q *Queue[T]) Drain() []T { return q.DrainInto(nil) }

// DrainInto is Drain appending to buf, so a caller that polls in a loop
// can hand the same buffer back in and pay no slice per poll.
func (q *Queue[T]) DrainInto(buf []T) []T {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.ring.Empty() {
		return buf
	}
	for !q.ring.Empty() {
		buf = append(buf, q.ring.PopFront())
	}
	q.notFull.Broadcast()
	return buf
}

// PushAll pushes each element of vs in order, blocking as needed. It stops
// at the first error and returns the number of elements pushed.
func (q *Queue[T]) PushAll(vs []T) (int, error) {
	for i, v := range vs {
		if err := q.Push(v); err != nil {
			return i, err
		}
	}
	return len(vs), nil
}
