package core

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestTokenPoolWidth: at width 2 two tokens are out at once, with
// distinct ids; a third acquire waits for a release and then gets the
// released token back.
func TestTokenPoolWidth(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	tp := newTokenPool()
	a, b := tp.acquire(), tp.acquire()
	if a.id == b.id {
		t.Fatalf("two held tokens share id %d", a.id)
	}
	got := make(chan *poolToken)
	go func() { got <- tp.acquire() }()
	select {
	case c := <-got:
		t.Fatalf("third acquire at width 2 returned token %d while two are held", c.id)
	case <-time.After(50 * time.Millisecond):
	}
	tp.release(b)
	if c := <-got; c != b {
		t.Errorf("acquire after release got token %d, want the released %d", c.id, b.id)
	}
}

// TestFanOutReraisesPanic: a panic inside one call of fanOut reaches
// the caller, where a recover up the stack (the daemon's) can see it,
// after every other call has finished.
func TestFanOutReraisesPanic(t *testing.T) {
	done := make([]bool, 4)
	defer func() {
		if r := recover(); r != "unit 2" {
			t.Errorf("recovered %v, want the panic of call 2", r)
		}
		for i, d := range done {
			if i != 2 && !d {
				t.Errorf("call %d had not finished when the panic was raised", i)
			}
		}
	}()
	fanOut(len(done), func(i int) {
		if i == 2 {
			panic("unit 2")
		}
		done[i] = true
	})
	t.Fatal("fanOut returned normally")
}

// TestFanOutBoundsGoroutines: however many calls a fan-out holds, at
// most spawnPerToken goroutines per pool token run them; the rest run
// inline, and every call runs once.
func TestFanOutBoundsGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var mu sync.Mutex
	ran, peak := 0, int64(0)
	fanOut(10, func(int) {
		fanOut(10, func(int) {
			mu.Lock()
			defer mu.Unlock()
			ran++
			peak = max(peak, spawned.Load())
		})
	})
	if ran != 100 {
		t.Errorf("%d calls ran, want 100", ran)
	}
	if peak > spawnPerToken {
		t.Errorf("%d goroutines ran at once at width 1, want at most %d", peak, spawnPerToken)
	}
}
