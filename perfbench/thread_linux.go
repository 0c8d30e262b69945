package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// Go's timers wake up to a millisecond late, which at thousands of requests
// per second would make the generator's own lateness the largest part of
// every measured latency. A load worker therefore runs on its own OS thread
// with a 1 ns timer slack and sleeps with nanosleep(2).

const prSetTimerSlack = 29 // PR_SET_TIMERSLACK from <linux/prctl.h>

// pinSleeper locks the calling goroutine to its thread, tightens the
// thread's timer slack, and returns the function that undoes both.
func pinSleeper() func() {
	runtime.LockOSThread()
	var old uintptr
	if v, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, 30 /* PR_GET_TIMERSLACK */, 0, 0); errno == 0 {
		old = v
	}
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	return func() {
		if old > 0 {
			syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, old, 0)
		}
		runtime.UnlockOSThread()
	}
}

// sleepUntil blocks the pinned thread until t.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(d)
			return
		}
	}
}

const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID from <time.h>

// threadCPU is the CPU time the kernel has charged the calling thread. The
// caller must be locked to its thread for a difference of two readings to
// be that thread's work. The kernel does not charge a thread for the time
// the host ran other tenants on its virtual processor (steal time), nor for
// time it waited to run, so the figure moves with the work done and not
// with the load on the machine.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("perfbench: clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
