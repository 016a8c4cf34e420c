package core

import (
	"crowdjoin/internal/clustergraph"
)

// IncrementalScanner computes Algorithm 3's crowdsourceable set repeatedly
// over the same order, reusing work across invocations.
//
// The scan's state at position i depends only on positions < i, and labels
// are final once set, so the prefix of the order that is fully labeled
// replays identically in every future scan. The scanner therefore keeps a
// persistent base graph that it advances past that labeled prefix exactly
// once — every label change happens at or after the first unlabeled
// position, so the base can never be invalidated — and each scan copies
// the base into a scratch graph (one O(n + edges) memcpy) and replays only
// the suffix from the first unlabeled position onward. Symmetrically, the
// scan stops at the last position that can still hold an unlabeled pair
// (non-increasing, for the same reason): nothing after it can be selected
// or deduced, and nothing after it needs the scan state.
//
// A rescan whose active window has shrunk to [f, t) costs O(n + t - f)
// instead of the O(P) full rebuild. Under the likelihood-descending order
// the frontier races forward as early (high-likelihood, mostly matching)
// pairs are labeled or deduced, so most scans touch only part of the
// order's tail. An earlier design checkpointed the scan graph with clones
// (and later with rollback journals); advancing a base past the final
// prefix beats both — it never repeats prefix work, keeps path compression
// effective, and allocates nothing per rescan.
type IncrementalScanner struct {
	order []Pair
	// base holds the scan state of order[:pos], all labeled with final
	// labels; pos is the first position the base has not absorbed.
	base *clustergraph.Graph
	pos  int
	// limit is one past the last position that held an unlabeled pair in
	// the previous scan; later positions are labeled forever and their
	// state is needed by nothing that follows them.
	limit int
	// scratch receives base's state each scan and replays the suffix.
	scratch *clustergraph.Graph
	// posLabels mirrors the caller's by-ID label slice in order position,
	// so the scan loop reads labels sequentially instead of hopping
	// through the ID permutation. Enabled by EnableLabelMirror; the caller
	// must then report every label it assigns through NoteLabel (labels
	// the scan deduces itself are mirrored internally).
	posLabels []Label
	posByID   []int32
	// OnDeduce, when non-nil, is invoked for every pair the fused scan
	// deduces itself (progress reporting); set before the first scan.
	OnDeduce func(Pair, Label)
}

// NewIncrementalScanner prepares a scanner for the given order.
func NewIncrementalScanner(numObjects int, order []Pair) *IncrementalScanner {
	return &IncrementalScanner{
		order:   order,
		base:    clustergraph.New(numObjects),
		limit:   len(order),
		scratch: clustergraph.New(numObjects),
	}
}

// EnableLabelMirror switches the scanner to position-indexed label reads.
// Call before the first scan, while every pair is still unlabeled.
func (s *IncrementalScanner) EnableLabelMirror() {
	s.posLabels = make([]Label, len(s.order))
	s.posByID = make([]int32, len(s.order))
	for pos, p := range s.order {
		s.posByID[p.ID] = int32(pos)
	}
}

// NoteLabel records that the pair with the given ID now carries l. With
// the mirror enabled the caller must invoke it for every label it assigns
// outside the scan (crowd answers, including conflict overrides).
func (s *IncrementalScanner) NoteLabel(id int, l Label) {
	s.posLabels[s.posByID[id]] = l
}

// maxBatch bounds the size of any batch a scan returns: every selected (or
// skipped) pair is undeducible, so assuming it matching merges two scan
// clusters, which can happen at most numObjects-1 times. A buffer of this
// capacity never grows.
func (s *IncrementalScanner) maxBatch() int {
	return max(0, min(s.base.Len()-1, len(s.order)))
}

// scan is the Algorithm 3 kernel behind the parallel and platform
// drivers: it appends to dst the pairs that must be crowdsourced given
// the current labels (indexed by Pair.ID), excluding pairs marked in skip.
// When dedG is non-nil, each still-unlabeled pair is first checked against
// it with the precomputed roots (Algorithm 2's deduction phase fused into
// the same pass); a deduced pair's label is written into labels (and the
// mirror) and counted in the returned total, and the scan then treats the
// pair as labeled. Platform and BatchOracle implementations may retain the
// batch they are handed, so callers that reuse dst must hand out a copy.
func (s *IncrementalScanner) scan(dst []Pair, labels []Label, skip []bool, dedG *clustergraph.Graph, dedRoots []int32) (out []Pair, deduced int) {
	out = dst
	// Advance the base past the labeled prefix; these positions replay
	// identically forever, so this work happens once per position. An
	// unlabeled pair that deduction can label right now is final too, so
	// it joins the base instead of stopping the advance — the base halts
	// only at the first pair that must be crowdsourced, which is always
	// the first member of the next batch.
advance:
	for s.pos < len(s.order) {
		p := s.order[s.pos]
		var l Label
		if s.posLabels != nil {
			l = s.posLabels[s.pos]
		} else {
			l = labels[p.ID]
		}
		if l == Unlabeled {
			if dedG == nil {
				break
			}
			switch dedG.DeduceRoots(dedRoots[p.A], dedRoots[p.B]) {
			case clustergraph.DeducedMatching:
				l = Matching
			case clustergraph.DeducedNonMatching:
				l = NonMatching
			default:
				break advance
			}
			labels[p.ID] = l
			if s.posLabels != nil {
				s.posLabels[s.pos] = l
			}
			deduced++
			if s.OnDeduce != nil {
				s.OnDeduce(p, l)
			}
		}
		s.base.ForceInsert(p.A, p.B, l == Matching)
		s.pos++
	}
	g := s.base.CloneInto(s.scratch)

	// The reused prefix needs no re-emission: every pair it selected was
	// published by a previous invocation — the scanner's contract is that
	// callers publish everything returned before calling again.
	hi := s.limit
	newLimit := s.pos
	for pos := s.pos; pos < hi; pos++ {
		p := s.order[pos]
		var l Label
		if s.posLabels != nil {
			l = s.posLabels[pos]
		} else {
			l = labels[p.ID]
		}
		if l == Unlabeled && dedG != nil {
			switch dedG.DeduceRoots(dedRoots[p.A], dedRoots[p.B]) {
			case clustergraph.DeducedMatching:
				l = Matching
			case clustergraph.DeducedNonMatching:
				l = NonMatching
			}
			if l != Unlabeled {
				labels[p.ID] = l
				if s.posLabels != nil {
					s.posLabels[pos] = l
				}
				deduced++
				if s.OnDeduce != nil {
					s.OnDeduce(p, l)
				}
			}
		}
		switch l {
		case Matching:
			g.ForceInsert(p.A, p.B, true)
		case NonMatching:
			g.ForceInsert(p.A, p.B, false)
		default:
			newLimit = pos + 1
			// Assume fuses the optimistic deduction with the matching
			// insert Algorithm 3 performs on undeduced pairs.
			if g.Assume(p.A, p.B) != clustergraph.Undeduced {
				continue
			}
			if skip == nil || !skip[p.ID] {
				out = append(out, p)
			}
		}
	}
	s.limit = newLimit
	return out, deduced
}
