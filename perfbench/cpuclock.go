package main

import (
	"syscall"
	"time"
)

// cpuNow is the CPU time the whole process has used so far, user and
// system, over all its threads: the analysis, its parallel workers, the
// garbage collector and, on serve-mixed, the daemon and its client. On a
// virtual machine whose kernel accounts steal time
// (CONFIG_PARAVIRT_TIME_ACCOUNTING) it leaves out the time the hypervisor
// gave to other tenants, which wall time does not.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage(RUSAGE_SELF): " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stopwatch times one operation by the wall clock and by process CPU
// time together.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuNow()} }

// elapsed returns the wall and CPU time since the watch started.
func (s stopwatch) elapsed() (wall, cpu time.Duration) {
	c := cpuNow()
	return time.Since(s.wall), c - s.cpu
}
