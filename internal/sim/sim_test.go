package sim

import (
	"testing"
	"time"
)

func TestEngineOrdersEvents(t *testing.T) {
	var e Engine
	var order []int
	e.Schedule(3*time.Millisecond, func() { order = append(order, 3) })
	e.Schedule(1*time.Millisecond, func() { order = append(order, 1) })
	e.Schedule(2*time.Millisecond, func() { order = append(order, 2) })
	e.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order %v", order)
	}
	if e.Now() != 3*time.Millisecond {
		t.Fatalf("clock %v", e.Now())
	}
}

func TestEngineFIFOAtEqualTimes(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events reordered: %v", order)
		}
	}
}

func TestEngineEventsCanSchedule(t *testing.T) {
	var e Engine
	var times []time.Duration
	var rec func()
	n := 0
	rec = func() {
		times = append(times, e.Now())
		n++
		if n < 5 {
			e.After(time.Millisecond, rec)
		}
	}
	e.Schedule(0, rec)
	e.RunAll()
	if len(times) != 5 || times[4] != 4*time.Millisecond {
		t.Fatalf("times %v", times)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var e Engine
	e.Schedule(5*time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(time.Millisecond, func() {})
	})
	e.RunAll()
}

func TestStepEmpty(t *testing.T) {
	var e Engine
	if e.step() {
		t.Fatal("step on empty queue returned true")
	}
}
