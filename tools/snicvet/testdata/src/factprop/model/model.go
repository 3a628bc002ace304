// Top of the fact-propagation fixture: two calls above the roots.
// Reports here prove facts chain through intermediate packages with
// their provenance intact.
package model

import (
	"fmt"
	"io"
	"sort"

	"snicvet.test/factprop/helper"
)

func Sample() int64 {
	return helper.Tag() // want "call to helper.Tag transitively reads the wall clock"
}

func Jitter() int {
	return helper.Roll() // want "call to helper.Roll transitively draws from math/rand"
}

func Export(m map[string]int) []string {
	return helper.Names(m) // want "call to helper.Names returns map-ordered data"
}

func Print(w io.Writer, m map[string]int) {
	fmt.Fprintln(w, helper.Names(m)) // want "determinism taint .map iteration order via helper.Names. reaches fmt.Fprintln" "call to helper.Names returns map-ordered data"
}

func ExportSorted(m map[string]int) []string {
	names := helper.Names(m) // ok: sorted below sanctions the call
	sort.Strings(names)
	return names
}

//snicvet:hotpath
func Hot(xs []int) []int {
	return helper.Push(xs) // want "call to helper.Push allocates"
}

// Cold is the negative: unannotated, so the allocating call is fine.
func Cold(xs []int) []int {
	return helper.Push(xs)
}
