package dynamic

import (
	"math/rand"
	"slices"
	"testing"
)

// TestColorSetMatchesMapMex pins the bitmap used-set against the map form
// the canonical oracle uses: same mex, and appendTo lists exactly the added
// colors >= 1 in increasing order — across word boundaries, after resets.
func TestColorSetMatchesMapMex(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s colorSet
	for trial := 0; trial < 500; trial++ {
		s.reset()
		used := map[int]bool{}
		limit := 1 + rng.Intn(200)
		for i := rng.Intn(limit); i > 0; i-- {
			c := rng.Intn(limit)
			s.add(c)
			used[c] = true
		}
		if trial%5 == 0 { // a dense prefix pushes the mex past a word
			for c := 0; c < 64*(1+trial%3); c++ {
				s.add(c)
				used[c] = true
			}
		}
		if got, want := s.mex(), mex(used); got != want {
			t.Fatalf("trial %d: mex = %d, want %d", trial, got, want)
		}
		var want []int
		for c := range used {
			if c >= 1 {
				want = append(want, c)
			}
		}
		slices.Sort(want)
		if got := s.appendTo(nil); !slices.Equal(got, want) {
			t.Fatalf("trial %d: members %v, want %v", trial, got, want)
		}
	}
}
