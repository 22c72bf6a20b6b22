package main

import "strings"

// cpuid executes the CPUID instruction (cpuid_amd64.s).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// cpuModel returns the processor brand string, read with CPUID so the
// benchmark reads no file outside its checkout.
func cpuModel() string {
	if maxExt, _, _, _ := cpuid(0x80000000, 0); maxExt < 0x80000004 {
		return "unknown amd64"
	}
	var b []byte
	for leaf := uint32(0x80000002); leaf <= 0x80000004; leaf++ {
		a, bx, c, d := cpuid(leaf, 0)
		for _, r := range []uint32{a, bx, c, d} {
			b = append(b, byte(r), byte(r>>8), byte(r>>16), byte(r>>24))
		}
	}
	return strings.TrimSpace(strings.TrimRight(string(b), "\x00"))
}
