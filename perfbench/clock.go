package main

import (
	"runtime"
	"time"
)

// Every wall-clock read of the benchmark lives in this file. Time only
// ever feeds the reported latencies and the run-length budget; the
// program's inputs and the checked outputs never depend on it.

func now() time.Time { return time.Now() } //repolint:allow timenow (benchmark timing)

func since(t time.Time) time.Duration { return time.Since(t) } //repolint:allow timenow (benchmark timing)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// settle collects the garbage earlier operations left before a
// sequential operation is timed, so that each one pays only for the
// collections its own allocations cause. Without it a ~90 ms warm plan
// after a cold one absorbs the cold plan's collection debt.
func settle() { runtime.GC() }
