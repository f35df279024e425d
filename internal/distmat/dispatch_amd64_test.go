//go:build !purego

package distmat

import (
	"reflect"
	"testing"

	"repro/internal/simd"
)

// TestDispatchPicksAVX2: where the CPU has AVX2 (simd's probe, itself held
// to /proc/cpuinfo), MatMat's interleave and de-interleave run on the AVX2
// kernels.
func TestDispatchPicksAVX2(t *testing.T) {
	if !simd.AVX2 {
		t.Skip("the CPU has no AVX2")
	}
	if reflect.ValueOf(interleaveLanes).Pointer() != reflect.ValueOf(interleaveAVX2).Pointer() {
		t.Error("the CPU has AVX2 but interleave does not dispatch to interleaveAVX2")
	}
	if reflect.ValueOf(deinterleaveLanes).Pointer() != reflect.ValueOf(deinterleaveAVX2).Pointer() {
		t.Error("the CPU has AVX2 but deinterleave does not dispatch to deinterleaveAVX2")
	}
}
