//go:build linux

package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity CPU set for up to 1024 CPUs.
type cpuMask [16]uint64

// allowedCPUs lists the CPUs this process may run on, ascending.
func allowedCPUs() ([]int, error) {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return nil, e
	}
	var cpus []int
	for i := range len(m) * 64 {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus, nil
}

// pinThread pins thread tid (0: the calling thread) to one CPU.
func pinThread(tid, cpu int) error {
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return e
	}
	return nil
}

// pinProcess pins every thread of this process to cpu; threads the
// runtime starts later inherit the pin from the thread that creates them.
func pinProcess(cpu int) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := pinThread(tid, cpu); err != nil && err != syscall.ESRCH {
			return err
		}
	}
	return nil
}

// startPinned starts cmd pinned to cpu: the child inherits the affinity
// of the thread that forks it, so the fork runs on a thread pinned for
// the purpose. That goroutine never unlocks its thread, so the runtime
// retires the thread, pin and all, when the goroutine returns.
func startPinned(cmd *exec.Cmd, cpu int) error {
	errc := make(chan error, 1)
	go func() {
		runtime.LockOSThread()
		if err := pinThread(0, cpu); err != nil {
			errc <- err
			return
		}
		errc <- cmd.Start()
	}()
	return <-errc
}

// pinSingle runs this process on one P pinned to its first allowed CPU,
// the conditions of the in-process workloads: one build or one pass at a
// time, never migrated between CPUs mid-measurement.
func pinSingle() error {
	runtime.GOMAXPROCS(1)
	cpus, err := allowedCPUs()
	if err != nil {
		return err
	}
	return pinProcess(cpus[0])
}
