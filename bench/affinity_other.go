//go:build !linux

package main

import "syscall"

// cpuRotor does nothing where the process cannot choose its CPU; see
// affinity_linux.go.
type cpuRotor struct{}

func newCPURotor() *cpuRotor { return nil }
func (r *cpuRotor) pin(int)  {}
func (r *cpuRotor) release() {}

// childAttr asks nothing of the platform; see affinity_linux.go.
func childAttr() *syscall.SysProcAttr { return nil }
