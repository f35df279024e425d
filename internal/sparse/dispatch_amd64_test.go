//go:build !purego

package sparse

import (
	"reflect"
	"testing"

	"repro/internal/simd"
)

// TestDispatchPicksAVX2: where the CPU has AVX2 (simd's probe, itself held
// to /proc/cpuinfo), the SpMM's column tiles run on the AVX2 kernel.
func TestDispatchPicksAVX2(t *testing.T) {
	if !simd.AVX2 {
		t.Skip("the CPU has no AVX2")
	}
	if reflect.ValueOf(spmmLanes).Pointer() != reflect.ValueOf(spmmAVX2).Pointer() {
		t.Fatal("the CPU has AVX2 but MulMat does not dispatch to spmmAVX2")
	}
}
