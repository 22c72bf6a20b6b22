//go:build !amd64

package main

import "runtime"

// cpuModel names only the architecture where no brand-string probe exists.
func cpuModel() string { return "unknown " + runtime.GOARCH }
