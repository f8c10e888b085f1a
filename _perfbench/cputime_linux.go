package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuNow is the CPU time every thread of this process has used so far. On a
// guest with paravirtual steal accounting the kernel leaves out the time the
// hypervisor withheld the CPU, so a difference of two readings is the work
// an operation cost this process, whatever the host was doing meanwhile.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
