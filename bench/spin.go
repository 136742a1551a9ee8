package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

// On a virtual machine an idle CPU halts, and a halted virtual CPU has to
// be given a core again by the host before it can run the thread that was
// just woken on it. How long that takes depends on what the host's other
// guests are doing and changes from minute to minute; a pipeline that
// hands work between threads thousands of times a second (replay-cont)
// then measures mostly the neighbours. So while the workloads run, the
// benchmark keeps every CPU from halting: one spinner process per CPU
// under SCHED_IDLE, which runs only while nothing else wants that CPU.
// This is the boot option idle=poll done from user space.
//
// Measured on the shared two-core host, 14 rounds of 40 s with spinners
// interleaved with 14 without: replay-cont's round medians spread over 11%
// of their median with spinners and over 28% without (interquartile
// range), and read 18% faster; wire-closed (8 rounds each way) read the
// same with and without, 412 against 418 ms a pass, spread 5% both ways.

// startSpinners starts n spinners and returns the function that kills
// them and waits until each has ended.
func startSpinners(n int) (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var started []*exec.Cmd
	stop = func() {
		for _, c := range started {
			c.Process.Kill()
			c.Wait()
		}
		started = nil
	}
	for i := 0; i < n; i++ {
		c := exec.Command(self, "-spinner", strconv.Itoa(os.Getpid()))
		c.Stderr = os.Stderr
		if err := c.Start(); err != nil {
			stop()
			return nil, err
		}
		started = append(started, c)
	}
	return stop, nil
}

var spinSink uint64

// spin is a spinner's whole life: one thread at the lowest priority in a
// loop that ends when the process that started it is gone, in case that
// process was killed before it could stop its spinners.
func spin(parent int) {
	runtime.GOMAXPROCS(1)
	runtime.LockOSThread() // a priority belongs to the thread
	if err := lowestPriority(); err != nil {
		fatal(err)
	}
	for x := uint64(1); os.Getppid() == parent; spinSink = x {
		for i := 0; i < 1<<22; i++ { // a few milliseconds between looks
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
	}
}
