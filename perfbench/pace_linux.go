package main

import (
	"runtime"
	"syscall"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// sleepUntil blocks until the run clock reaches t (ns since epoch). Go's
// timers wake ~1 ms late for sub-millisecond sleeps and the kernel's default
// 50 µs timer slack delays nanosleep as much, either of which would bunch an
// open loop's arrivals; so the sleeping thread's slack is set to 1 µs first.
// The goroutine is wired to its thread only for the sleep: a generator
// locked for its whole life would pay a thread handoff on every network
// wait.
func sleepUntil(t int64) {
	if t-now() <= 0 {
		return
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
	for {
		d := t - now()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		syscall.Nanosleep(&ts, nil) // EINTR from runtime signals: loop re-sleeps
	}
}
