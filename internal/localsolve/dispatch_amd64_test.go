//go:build !purego

package localsolve

import (
	"reflect"
	"testing"

	"repro/internal/simd"
)

// TestDispatchPicksAVX2: where the CPU has AVX2 (simd's probe, itself held
// to /proc/cpuinfo), the fused ILU(0) sweep runs on the AVX2 kernel.
func TestDispatchPicksAVX2(t *testing.T) {
	if !simd.AVX2 {
		t.Skip("the CPU has no AVX2")
	}
	if reflect.ValueOf(iluLanes).Pointer() != reflect.ValueOf((*ILU0).sweepAVX2).Pointer() {
		t.Fatal("the CPU has AVX2 but SolveK does not dispatch to sweepAVX2")
	}
}
