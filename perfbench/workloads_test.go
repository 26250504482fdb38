package main

import (
	"testing"

	"uniint/internal/workload"
)

// TestDisjointRoamNeverSharesAHome: every client's itinerary stays on its
// own share of the homes, and the shares together cover every home.
func TestDisjointRoamNeverSharesAHome(t *testing.T) {
	for _, seed := range []int64{1, 626303848} {
		plans := disjointRoam(seed)
		if len(plans) != nproc {
			t.Fatalf("seed %d: %d plans, want %d", seed, len(plans), nproc)
		}
		owner := map[string]int{}
		for i, p := range plans {
			for _, v := range p.Visits {
				if o, ok := owner[v.HomeID]; ok && o != i {
					t.Fatalf("seed %d: %s visited by clients %d and %d", seed, v.HomeID, o, i)
				}
				owner[v.HomeID] = i
			}
		}
		for h := 0; h < homeCount; h++ {
			if _, ok := owner[workload.HomeID(h)]; !ok {
				t.Errorf("seed %d: %s never visited", seed, workload.HomeID(h))
			}
		}
	}
}
