package core

import "crowdjoin/internal/clustergraph"

// incrementalDeducer maintains the crowd-label graph together with
// per-cluster member lists and a per-object index of candidate pairs, so
// that after each crowd answer only the pairs that might have become
// deducible are re-checked, instead of the whole order.
//
// Soundness: inserting a matching label only changes deductions involving
// the merged cluster (same-cluster queries inside it, edge queries from
// it); inserting a non-matching label only adds deductions between the two
// newly connected clusters. Every such pair touches the visited cluster,
// so checking pairs incident to its members covers all newly deducible
// pairs.
//
// The whole structure is three flat slices: a CSR incidence index and one
// circular successor list threading each cluster's members, so building
// it costs three allocations and a merge splices two clusters in O(1).
type incrementalDeducer struct {
	g *clustergraph.Graph
	// byPos[start[o]:start[o+1]] lists, ascending, the order positions of
	// the pairs touching object o.
	start []int32
	byPos []int32
	// next[o] is the member after o in its cluster's circular list.
	next []int32
}

func newIncrementalDeducer(numObjects int, order []Pair, g *clustergraph.Graph) *incrementalDeducer {
	d := &incrementalDeducer{
		g:     g,
		start: make([]int32, numObjects+1),
		byPos: make([]int32, 2*len(order)),
		next:  make([]int32, numObjects),
	}
	for _, p := range order {
		d.start[p.A+1]++
		d.start[p.B+1]++
	}
	for o := 0; o < numObjects; o++ {
		d.start[o+1] += d.start[o]
	}
	// Fill each object's run front to back, borrowing next[o] as its
	// cursor; it becomes the singleton cycle o → o afterwards.
	for o := range d.next {
		d.next[o] = d.start[o]
	}
	for pos, p := range order {
		d.byPos[d.next[p.A]] = int32(pos)
		d.next[p.A]++
		d.byPos[d.next[p.B]] = int32(pos)
		d.next[p.B]++
	}
	for o := range d.next {
		d.next[o] = int32(o)
	}
	return d
}

// insert records a crowd label and returns a member of the cluster whose
// incident pairs may have become deducible (walk it with next and
// incident), or -1 when the label implies nothing new. On a conflicting
// label the graph is unchanged and the error is returned for the caller's
// conflict policy.
func (d *incrementalDeducer) insert(a, b int32, matching bool) (int32, error) {
	if matching {
		if d.g.SameCluster(a, b) {
			return -1, nil // already implied; no new deductions
		}
		if err := d.g.InsertMatching(a, b); err != nil {
			return -1, err
		}
		// a and b sat on disjoint cycles; swapping their successors
		// splices them into one cycle through the merged cluster.
		d.next[a], d.next[b] = d.next[b], d.next[a]
		return a, nil
	}
	if d.g.SameCluster(a, b) {
		// Conflict: matching by deduction. Leave graph untouched.
		return -1, d.g.InsertNonMatching(a, b)
	}
	if d.g.HasEdge(a, b) {
		return -1, nil // already implied
	}
	if err := d.g.InsertNonMatching(a, b); err != nil {
		return -1, err
	}
	// Newly deducible pairs span the two clusters; every one of them
	// touches the smaller side.
	if d.g.ClusterSize(b) < d.g.ClusterSize(a) {
		return b, nil
	}
	return a, nil
}

// incident returns the order positions of the pairs touching object o.
func (d *incrementalDeducer) incident(o int32) []int32 {
	return d.byPos[d.start[o]:d.start[o+1]]
}
