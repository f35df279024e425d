//go:build linux && !purego

package simd

import (
	"bytes"
	"os"
	"testing"
)

// TestProbeMatchesCPUInfo: the CPUID probe finds AVX2 exactly when the
// kernel's /proc/cpuinfo flags list avx2 (Linux lists it only with the YMM
// state enabled), so a broken probe cannot make the kernels fall back to Go
// unnoticed; the kernel packages' dispatch tests take it from there.
func TestProbeMatchesCPUInfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	if want := cpuinfoHasFlag(info, "avx2"); AVX2 != want {
		t.Fatalf("the probe reports AVX2 %v, /proc/cpuinfo lists avx2: %v", AVX2, want)
	}
}

// cpuinfoHasFlag reports whether the first "flags" line of /proc/cpuinfo
// lists flag.
func cpuinfoHasFlag(info []byte, flag string) bool {
	for _, line := range bytes.Split(info, []byte("\n")) {
		if name, list, ok := bytes.Cut(line, []byte(":")); ok && string(bytes.TrimSpace(name)) == "flags" {
			for _, f := range bytes.Fields(list) {
				if string(f) == flag {
					return true
				}
			}
			return false
		}
	}
	return false
}
