//go:build !purego

package vec

import (
	"reflect"
	"testing"

	"repro/internal/simd"
)

// TestDispatchPicksAVX2: where the CPU has AVX2 (simd's probe, itself held
// to /proc/cpuinfo), the updates and the k-column reductions run on the AVX2
// kernels.
func TestDispatchPicksAVX2(t *testing.T) {
	if !simd.AVX2 {
		t.Skip("the CPU has no AVX2")
	}
	for _, k := range []struct {
		name      string
		got, want any
	}{
		{"AxpyAxpy", axpyAxpyLanes, axpyAxpyAVX2},
		{"Axpby", axpbyLanes, axpbyAVX2},
		{"DotK/Dot2K", dot2KLanes, dot2KAVX2},
	} {
		if reflect.ValueOf(k.got).Pointer() != reflect.ValueOf(k.want).Pointer() {
			t.Errorf("the CPU has AVX2 but %s does not dispatch to its AVX2 kernel", k.name)
		}
	}
}
