//go:build !linux

package main

import "syscall"

// lowestPriority is nice 19 where there is no SCHED_IDLE.
func lowestPriority() error {
	return syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19)
}
