package core

import (
	"math/rand"
	"slices"
	"testing"
)

// TestRemoveInPlaceMatchesSubtract pins removeInPlace to subtract: on
// random lists and pieces it must leave the same vertices in the same
// order, so a class list that starts in ascending id stays so and the
// prefix oracles take it without a sorted copy. It must also compact
// within the list's own array.
func TestRemoveInPlaceMatchesSubtract(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		U := make([]int32, 0, n)
		for v := range int32(2 * n) {
			if rng.Intn(2) == 0 {
				U = append(U, v)
			}
		}
		if trial%2 == 1 {
			rng.Shuffle(len(U), func(i, j int) { U[i], U[j] = U[j], U[i] })
		}
		var X []int32
		for _, v := range U {
			if rng.Intn(5) == 0 {
				X = append(X, v)
			}
		}
		want := subtract(U, X)
		got := removeInPlace(slices.Clone(U), X)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: removeInPlace left %v, subtract %v", trial, got, want)
		}
	}

	U := []int32{2, 3, 5, 7, 11, 13, 17}
	if got := removeInPlace(U, []int32{13, 3}); &got[0] != &U[0] || !slices.Equal(got, []int32{2, 5, 7, 11, 17}) {
		t.Fatalf("removeInPlace returned %v, want [2 5 7 11 17] in the list's own array", got)
	}
}
