package simtime

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 30 {
		t.Fatalf("Now = %d", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events out of scheduling order: %v", order)
		}
	}
}

func TestAfterAndNesting(t *testing.T) {
	s := New()
	var fired []Time
	s.After(10, func() {
		fired = append(fired, s.Now())
		s.After(5, func() {
			fired = append(fired, s.Now())
		})
	})
	s.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("At in the past did not panic")
			}
		}()
		s.At(5, func() {})
	})
	s.Run()
}

func TestRunUntil(t *testing.T) {
	s := New()
	var count int
	for _, at := range []Time{5, 10, 15, 20} {
		s.At(at, func() { count++ })
	}
	s.RunUntil(12)
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	if s.Now() != 12 {
		t.Fatalf("Now = %d, want 12", s.Now())
	}
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d", s.Pending())
	}
	s.Run()
	if count != 4 || s.Now() != 20 {
		t.Fatalf("after Run: count=%d now=%d", count, s.Now())
	}
}

func TestStepOnEmpty(t *testing.T) {
	s := New()
	if s.Step() {
		t.Fatal("Step on empty sim returned true")
	}
}

// TestEventOrderProperty: any set of scheduled times fires in sorted
// order with ties in submission order.
func TestEventOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		s := New()
		type stamp struct {
			at  Time
			seq int
		}
		var fired []stamp
		for i, raw := range times {
			at := Time(raw % 64) // force collisions
			i := i
			s.At(at, func() { fired = append(fired, stamp{at, i}) })
		}
		s.Run()
		if len(fired) != len(times) {
			return false
		}
		sorted := sort.SliceIsSorted(fired, func(a, b int) bool {
			if fired[a].at != fired[b].at {
				return fired[a].at < fired[b].at
			}
			return fired[a].seq < fired[b].seq
		})
		return sorted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeConversions(t *testing.T) {
	if Second.Seconds() != 1 {
		t.Fatal("Second != 1s")
	}
	if Millisecond.Milliseconds() != 1 {
		t.Fatal("Millisecond != 1ms")
	}
	if FromSeconds(2.5) != 2500*Millisecond {
		t.Fatalf("FromSeconds(2.5) = %d", FromSeconds(2.5))
	}
}

func TestServerSequentialService(t *testing.T) {
	s := New()
	sv := NewServer(s, 1)
	var doneAt []Time
	for i := 0; i < 3; i++ {
		sv.Visit(10, func() { doneAt = append(doneAt, s.Now()) })
	}
	s.Run()
	want := []Time{10, 20, 30}
	for i, w := range want {
		if doneAt[i] != w {
			t.Fatalf("doneAt = %v, want %v", doneAt, want)
		}
	}
	if sv.Served() != 3 {
		t.Fatalf("Served = %d", sv.Served())
	}
	if sv.BusyTime() != 30 {
		t.Fatalf("BusyTime = %d", sv.BusyTime())
	}
	if got := sv.BusyCores(30); got != 1 {
		t.Fatalf("BusyCores = %v", got)
	}
}

func TestServerParallelism(t *testing.T) {
	s := New()
	sv := NewServer(s, 2)
	var doneAt []Time
	for i := 0; i < 4; i++ {
		sv.Visit(10, func() { doneAt = append(doneAt, s.Now()) })
	}
	s.Run()
	// Two at a time: completions at 10, 10, 20, 20.
	want := []Time{10, 10, 20, 20}
	for i, w := range want {
		if doneAt[i] != w {
			t.Fatalf("doneAt = %v, want %v", doneAt, want)
		}
	}
	if sv.Utilization(20) != 1.0 {
		t.Fatalf("Utilization = %v", sv.Utilization(20))
	}
}

func TestServerQueueStats(t *testing.T) {
	s := New()
	sv := NewServer(s, 1)
	for i := 0; i < 5; i++ {
		sv.Visit(1, nil)
	}
	if sv.QueueLen() != 4 || sv.InUse() != 1 {
		t.Fatalf("queue=%d inUse=%d", sv.QueueLen(), sv.InUse())
	}
	if sv.MaxQueueLen() != 4 {
		t.Fatalf("MaxQueueLen = %d", sv.MaxQueueLen())
	}
	s.Run()
	if sv.QueueLen() != 0 || sv.InUse() != 0 {
		t.Fatalf("after run: queue=%d inUse=%d", sv.QueueLen(), sv.InUse())
	}
}

func TestServerPanics(t *testing.T) {
	s := New()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("capacity 0 accepted")
			}
		}()
		NewServer(s, 0)
	}()
	sv := NewServer(s, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative service accepted")
			}
		}()
		sv.Visit(-1, nil)
	}()
}

// TestServerConservation: jobs in = jobs out, and with capacity c and
// equal service times the makespan is ceil(n/c)*service.
func TestServerConservationProperty(t *testing.T) {
	f := func(nSeed, cSeed uint8, svcSeed uint16) bool {
		n := int(nSeed)%50 + 1
		c := int(cSeed)%8 + 1
		svc := Time(svcSeed%1000) + 1
		s := New()
		sv := NewServer(s, c)
		done := 0
		for i := 0; i < n; i++ {
			sv.Visit(svc, func() { done++ })
		}
		s.Run()
		if done != n {
			return false
		}
		batches := (n + c - 1) / c
		return s.Now() == Time(batches)*svc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMM1Sanity: an M/D/1-ish queue where arrivals outpace service grows
// its queue; where service outpaces arrivals it stays bounded. This is
// the load/saturation behaviour every figure experiment relies on.
func TestQueueGrowthSanity(t *testing.T) {
	s := New()
	fast := NewServer(s, 1) // service 5, arrivals every 10 -> idle
	slow := NewServer(s, 1) // service 20, arrivals every 10 -> backlog
	for i := 0; i < 100; i++ {
		at := Time(i) * 10
		s.At(at, func() { fast.Visit(5, nil) })
		s.At(at, func() { slow.Visit(20, nil) })
	}
	s.RunUntil(1000)
	if fast.QueueLen() != 0 {
		t.Fatalf("underloaded server has queue %d", fast.QueueLen())
	}
	if slow.QueueLen() < 40 {
		t.Fatalf("overloaded server queue = %d, want >= 40", slow.QueueLen())
	}
	// Utilisations: fast ~50%, slow pegged at 100%.
	if u := fast.Utilization(1000); u < 0.45 || u > 0.55 {
		t.Fatalf("fast utilization = %v", u)
	}
	if u := slow.Utilization(1000); u < 0.99 {
		t.Fatalf("slow utilization = %v", u)
	}
}
