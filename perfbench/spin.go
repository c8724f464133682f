package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// On a virtual machine, an idle vCPU halts and waits for the host to
// schedule it again when work arrives; on a busy host that wait is long
// and varies from run to run (it shows as steal time in /proc/stat).
// The ops here wake the server's threads several times each, so that
// variation reached straight into their latency. While it measures, the
// benchmark therefore keeps every CPU from halting with a spinner child
// process whose threads run at SCHED_IDLE: the kernel runs them only
// when nothing else is runnable and preempts them at once for anything
// that wakes.

// schedIdle is Linux's SCHED_IDLE policy.
const schedIdle = 5

// startSpinner starts the spinner child. The caller stops it with
// stopSpinner; the child also dies with its parent.
func startSpinner() (*exec.Cmd, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--spin")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start spinner: %w", err)
	}
	return cmd, nil
}

// stopSpinner kills the spinner and waits for it to exit.
func stopSpinner(cmd *exec.Cmd) {
	cmd.Process.Kill()
	cmd.Wait()
}

// spin is the spinner child: one SCHED_IDLE busy thread per CPU.
func spin() error {
	errs := make(chan error)
	for i := 0; i < runtime.NumCPU(); i++ {
		go func() {
			runtime.LockOSThread()
			var param struct{ priority int32 }
			if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
				errs <- fmt.Errorf("spinner: sched_setscheduler: %w", errno)
				return
			}
			for {
			}
		}()
	}
	return <-errs
}
