//go:build !linux

package main

import "time"

func pinSleeper() func() { return func() {} }

func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

var wallOrigin = time.Now()

// threadCPU falls back to wall time where the thread CPU clock is not
// wired up: the CPU-time metrics then read as wall time.
func threadCPU() time.Duration { return time.Since(wallOrigin) }
