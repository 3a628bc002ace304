// Fixture for detflow's collect-order rule: map iteration collecting
// into a slice used later is reported unless the slice is sorted
// afterwards.
package maporder

import (
	"fmt"
	"sort"
)

func badAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "append to keys inside map iteration"
	}
	return keys
}

func badNested(m map[string]map[string]int) []string {
	var out []string
	for _, inner := range m {
		for k := range inner {
			out = append(out, k) // want "append to out inside map iteration"
		}
	}
	return out
}

func goodCollectThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k) // ok: sorted below
	}
	sort.Strings(keys)
	return keys
}

func goodSortIndirect(m map[int]string) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id) // ok: sorted below through a conversion
	}
	sort.Sort(sort.IntSlice(ids))
	return ids
}

func goodLocalSlice(m map[string]int) {
	for k := range m {
		parts := make([]string, 0, 1)
		parts = append(parts, k) // ok: slice scoped to one iteration
		_ = parts
	}
}

func goodCommutative(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v // ok: order-independent reduction
	}
	return total
}

func goodSliceRange(xs []string) {
	for _, x := range xs {
		fmt.Println(x) // ok: slices iterate in order
	}
}
