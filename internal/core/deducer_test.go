package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"crowdjoin/internal/clustergraph"
)

// TestIncrementalDeducerCoversAllNewDeductions: after every insert, the
// pairs that became deducible (checked by exhaustive comparison of before/
// after deducibility over the whole order) are a subset of the positions
// incident to the cluster the deducer reports, and walking that cluster's
// circular member list visits exactly its members.
func TestIncrementalDeducerCoversAllNewDeductions(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, pairs, truth := randomInstance(rng, 14, 40)
		order := ExpectedOrder(pairs)
		g := clustergraph.New(n)
		d := newIncrementalDeducer(n, order, g)
		deducible := func() map[int]clustergraph.Verdict {
			out := map[int]clustergraph.Verdict{}
			for _, p := range order {
				if v := g.Deduce(p.A, p.B); v != clustergraph.Undeduced {
					out[p.ID] = v
				}
			}
			return out
		}
		before := deducible()
		for trial := 0; trial < 25; trial++ {
			p := order[rng.Intn(len(order))]
			l := truth.Label(p)
			visit, err := d.insert(p.A, p.B, l == Matching)
			if err != nil {
				continue // conflict-free inputs only; skip
			}
			after := deducible()
			reported := map[int]bool{}
			for m := visit; m >= 0; {
				if !g.SameCluster(m, visit) {
					return false // member list strayed out of the cluster
				}
				for _, pos := range d.incident(m) {
					reported[order[pos].ID] = true
				}
				if m = d.next[m]; m == visit {
					break
				}
			}
			if visit >= 0 {
				walked := 0
				for m := d.next[visit]; ; m = d.next[m] {
					walked++
					if m == visit {
						break
					}
				}
				if walked != int(g.ClusterSize(visit)) {
					return false // member list misses part of the cluster
				}
			}
			for id, v := range after {
				if bv, ok := before[id]; ok && bv == v {
					continue // not new
				}
				if !reported[id] && id != p.ID {
					return false // newly deducible pair missed
				}
			}
			before = after
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestLabelOnPlatformIncrementalDeduceEquivalence: the incremental
// deduction pass changes no observable output against the from-scratch
// reference's whole-order sweep, across instant modes, a random worker and
// noisy answer functions.
func TestLabelOnPlatformIncrementalDeduceEquivalence(t *testing.T) {
	f := func(seed int64, instant bool, noisy bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n, pairs, truth := randomInstance(rng, 14, 40)
		c := platformReferenceCase{
			numObjects: n, order: ExpectedOrder(pairs),
			oracle: noisyOracle{truth: truth},
			policy: SelectRandom, seed: seed + 9, instant: instant,
		}
		if noisy {
			c.oracle = noisyOracle{truth, 4}
		}
		if err := c.check(); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalDeducerConflictLeavesStateUsable: a conflicting insert
// reports ErrConflict without corrupting member tracking.
func TestIncrementalDeducerConflictLeavesStateUsable(t *testing.T) {
	order := []Pair{
		{ID: 0, A: 0, B: 1, Likelihood: 0.9},
		{ID: 1, A: 1, B: 2, Likelihood: 0.8},
		{ID: 2, A: 0, B: 2, Likelihood: 0.7},
	}
	g := clustergraph.New(3)
	d := newIncrementalDeducer(3, order, g)
	if _, err := d.insert(0, 1, true); err != nil {
		t.Fatal(err)
	}
	if _, err := d.insert(1, 2, true); err != nil {
		t.Fatal(err)
	}
	// 0 and 2 are matching by deduction; a non-matching insert conflicts.
	if _, err := d.insert(0, 2, false); err == nil {
		t.Fatal("conflict not reported")
	}
	// State must still work: inserting the consistent label is a no-op and
	// further queries answer correctly.
	if g.Deduce(0, 2) != clustergraph.DeducedMatching {
		t.Error("graph corrupted by rejected insert")
	}
}
