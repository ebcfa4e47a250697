package par

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// recovered runs f and returns the value it panicked with, nil if none.
func recovered(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// TestWorkerPanicReachesCaller: a panic on any goroutine For, ForEach or
// a Group forks is raised again on the forking goroutine, and only after
// every worker has finished — also when the caller's own share is the
// one that panics. A re-raised worker panic keeps its value and carries
// the worker's stack.
func TestWorkerPanicReachesCaller(t *testing.T) {
	const n = 4 * minGrain
	var finished atomic.Int32
	// work panics at once or works for a while: a panic that escaped
	// before the join would leave other bodies unfinished.
	work := func(panics bool) {
		if panics {
			panic("boom")
		}
		time.Sleep(5 * time.Millisecond)
		finished.Add(1)
	}
	cases := []struct {
		name   string
		run    func()
		want   int32 // bodies that finish without panicking
		worker bool  // the panic is raised on a forked goroutine
	}{
		{"For worker chunk", func() {
			For(4, n, func(chunk, _, _ int) { work(chunk == 3) })
		}, 3, true},
		{"For caller chunk", func() {
			For(4, n, func(chunk, _, _ int) { work(chunk == 0) })
		}, 3, false},
		{"ForEach", func() {
			ForEach(4, 16, func(i int) { work(i == 9) })
		}, 15, false},
		{"Group", func() {
			g := NewGroup(2)
			g.Spawn(func() { work(true) })
			g.Wait()
		}, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			finished.Store(0)
			v := recovered(tc.run)
			if v == nil {
				t.Fatal("panic did not reach the caller")
			}
			if got := finished.Load(); got != tc.want {
				t.Fatalf("%d bodies finished before the panic surfaced, want %d", got, tc.want)
			}
			msg := fmt.Sprint(v)
			if !strings.Contains(msg, "boom") {
				t.Fatalf("panic value %q lost the original", msg)
			}
			if tc.worker && !strings.Contains(msg, "par worker stack:\ngoroutine ") {
				t.Fatalf("worker panic %q carries no worker stack", msg)
			}
		})
	}
}

// TestGroupInlinePanicJoinsSpawned: a panic in a task Spawn runs inline
// is held like a spawned task's, so Spawn returns normally and Wait
// re-raises the inline value only after the spawned task has finished.
func TestGroupInlinePanicJoinsSpawned(t *testing.T) {
	g := NewGroup(2)
	release := make(chan struct{})
	var finished atomic.Bool
	g.Spawn(func() { // takes the Group's one helper slot
		<-release
		finished.Store(true)
	})
	// No slot is free, so this task runs inline.
	if v := recovered(func() { g.Spawn(func() { panic("inline boom") }) }); v != nil {
		t.Fatalf("inline panic escaped Spawn: %v", v)
	}
	time.AfterFunc(20*time.Millisecond, func() { close(release) })
	v := recovered(g.Wait)
	if v == nil {
		t.Fatal("Wait did not re-raise the inline panic")
	}
	if !finished.Load() {
		t.Fatal("Wait panicked before the spawned task finished")
	}
	if msg := fmt.Sprint(v); !strings.Contains(msg, "inline boom") {
		t.Fatalf("panic value %q lost the inline value", msg)
	}
}
