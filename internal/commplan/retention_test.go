package commplan

import "testing"

// TestRetentionWidthK exercises the k-strided store of blocked multi-RHS
// solves: Store takes len(IndicesFrom(src))*k values per source, ValuesAt
// returns k consecutive values per requested position, and Wipe preserves the
// width for the replacement node.
func TestRetentionWidthK(t *testing.T) {
	const k = 3
	idxFrom := [][]int{nil, {4, 7}, {9}}
	rt := NewRetention(idxFrom, k)
	if rt.Width() != k {
		t.Fatalf("Width = %d, want %d", rt.Width(), k)
	}

	// Values for index g of column j: 100*g + j (+1000 per generation).
	mk := func(gen int, idx []int) []float64 {
		out := make([]float64, len(idx)*k)
		for i, g := range idx {
			for j := 0; j < k; j++ {
				out[i*k+j] = float64(1000*gen + 100*g + j)
			}
		}
		return out
	}
	rt.Store(0, [][]float64{nil, mk(0, idxFrom[1]), mk(0, idxFrom[2])})
	rt.Store(1, [][]float64{nil, mk(1, idxFrom[1]), mk(1, idxFrom[2])})

	for gen := 0; gen <= 1; gen++ {
		got, err := rt.ValuesAt(nil, gen, 1, []int{1, 0}) // indices 7, 4
		if err != nil {
			t.Fatalf("gen %d: %v", gen, err)
		}
		want := []float64{
			float64(1000*gen + 700), float64(1000*gen + 701), float64(1000*gen + 702),
			float64(1000*gen + 400), float64(1000*gen + 401), float64(1000*gen + 402),
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("gen %d ValuesAt = %v, want %v", gen, got, want)
			}
		}
	}

	// Generation 2 keeps 1 and drops 0: one payload per source.
	if dropped := rt.Keep(1); len(dropped) != 2 {
		t.Fatalf("Keep(1) dropped %d payloads, want 2", len(dropped))
	}
	rt.Store(2, [][]float64{nil, mk(2, idxFrom[1]), mk(2, idxFrom[2])})
	if _, err := rt.ValuesAt(nil, 0, 1, []int{0}); err == nil {
		t.Fatal("generation 0 still retained after Keep(1)")
	}

	rt.Wipe()
	if rt.Width() != k {
		t.Fatalf("Width after Wipe = %d, want %d", rt.Width(), k)
	}
	if _, err := rt.ValuesAt(nil, 2, 1, []int{0}); err == nil {
		t.Fatal("generation 2 still retained after Wipe")
	}
	// The wiped store accepts new width-k generations again.
	rt.Keep(4)
	rt.Store(5, [][]float64{nil, mk(5, idxFrom[1]), mk(5, idxFrom[2])})
	got, err := rt.ValuesAt(nil, 5, 2, []int{0}) // index 9
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 5900 || got[1] != 5901 || got[2] != 5902 {
		t.Fatalf("post-wipe ValuesAt = %v", got)
	}
}

// TestRetentionWidthMismatchPanics pins the Store length contract: a source
// payload that is not len(indices)*width values must panic loudly rather
// than silently misalign columns.
func TestRetentionWidthMismatchPanics(t *testing.T) {
	rt := NewRetention([][]int{{1, 2}}, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("short width-2 payload did not panic")
		}
	}()
	rt.Store(0, [][]float64{{1, 2}}) // want 2*2 = 4 values
}
