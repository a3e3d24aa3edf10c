package main

import (
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// On the shared two-vCPU host this benchmark was sized on, each vCPU flips
// on its own between a quiet and a contended state that lasts from seconds
// to most of a minute; the same single-threaded work runs 19 % slower on the
// contended one (bench/README.md has the runs). A thread stays where the
// guest's scheduler put it, which cannot see the contention. So the
// single-threaded workloads move the whole process to the next allowed CPU
// before every segment: whichever CPU is quiet at the time then supplies the
// quiet segments.

// cpuSet is a CPU mask as sched_setaffinity takes it.
type cpuSet [16]uint64

// cpuRotor moves the process from one allowed CPU to the next. A nil rotor
// does nothing: that is what a platform without the system calls, or a
// single allowed CPU, gets.
type cpuRotor struct {
	allowed cpuSet
	cpus    []int
}

func newCPURotor() *cpuRotor {
	r := &cpuRotor{}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(r.allowed), uintptr(unsafe.Pointer(&r.allowed))); errno != 0 {
		return nil
	}
	for cpu := 0; cpu < 64*len(r.allowed); cpu++ {
		if r.allowed[cpu/64]&(1<<(cpu%64)) != 0 {
			r.cpus = append(r.cpus, cpu)
		}
	}
	if len(r.cpus) < 2 {
		return nil
	}
	return r
}

// pin moves every thread of the process to the round'th allowed CPU.
func (r *cpuRotor) pin(round int) {
	if r == nil {
		return
	}
	var one cpuSet
	cpu := r.cpus[round%len(r.cpus)]
	one[cpu/64] = 1 << (cpu % 64)
	setAffinity(&one)
}

// release lets the process use every CPU it was allowed again.
func (r *cpuRotor) release() {
	if r != nil {
		setAffinity(&r.allowed)
	}
}

// setAffinity applies mask to every thread of the process; threads started
// later inherit it from the thread that starts them. A thread that exits
// meanwhile is skipped.
func setAffinity(mask *cpuSet) {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*mask), uintptr(unsafe.Pointer(mask)))
	}
}

// childAttr has the kernel kill a child the moment this process dies, so
// that no path out of the benchmark, a kill from outside included, leaves
// the layer suite running.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
