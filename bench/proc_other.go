//go:build !linux

package main

import (
	"io/fs"
	"os/exec"
)

// The numbers below come from /proc and statfs on Linux; elsewhere the
// benchmark still builds and runs, reporting them as unknown.

func dieWithParent(*exec.Cmd) {}

func peakRSSMiB(int) float64 { return 0 }

func fsType(string) string { return "unknown" }

func onDisk(info fs.FileInfo) int64 { return info.Size() }

func cpuModel() string { return "unknown" }
