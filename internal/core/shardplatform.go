package core

import (
	"errors"
	"fmt"
	"sync"

	"crowdjoin/internal/clustergraph"
)

// platformShardState is one component's private half of the sharded
// platform driver: its own crowd-label graph, publish bookkeeping, and
// Algorithm-3 scan, all in the shard's local coordinates.
type platformShardState struct {
	s         *Shard
	ro        RunOpts
	res       Result
	labeled   *clustergraph.Graph
	published []bool
	unlabeled int
	// outstanding counts this shard's published-but-unanswered pairs: in
	// plain (non-instant) mode a shard refills the moment its own round
	// drains, instead of waiting for the whole platform to drain.
	outstanding int
	scanner     *IncrementalScanner
	ded         *incrementalDeducer
	// batch is the reused scan output; publishes translate it into a
	// fresh global slice.
	batch     []Pair
	conflicts int
}

// LabelShardedOnPlatformRun drives the platform labeler with the candidate
// graph split into connected components: every component runs its own
// Algorithm-3 scan, deduction graph, and publish rounds, while sharing the
// one Platform. Publishes interleave and a component refills as soon as
// its own outstanding work drains (per-shard in plain mode, per answer in
// instant mode) — a HIT round never waits for another component's
// answers, so a slow component no longer gates the whole join — and each
// incoming label is routed back to the component that published it. The
// driver itself stays single-threaded (Platform is a pull interface); the
// concurrency is in the crowd, which sees every component's mandatory
// pairs at once.
//
// Labels, crowdsourced counts, and conflicts match LabelOnPlatformRun for
// crowds whose answer to a pair does not depend on question order;
// PublishSizes splits the global driver's publish events per component
// (events carry the component id), and Availability remains the global
// outstanding-work series.
func LabelShardedOnPlatformRun(numObjects int, order []Pair, pf Platform, opts PlatformOptions, ro RunOpts) (*TraceResult, error) {
	pt, err := BuildPartition(numObjects, order)
	if err != nil {
		return nil, err
	}
	return LabelPartitionedOnPlatformRun(pt, pf, opts, ro)
}

// LabelPartitionedOnPlatformRun is LabelShardedOnPlatformRun over an
// already-built Partition — streaming sessions build the partition once
// with an IncrementalPartitioner and hand it in here.
func LabelPartitionedOnPlatformRun(pt *Partition, pf Platform, opts PlatformOptions, ro RunOpts) (*TraceResult, error) {
	numPairs := pt.NumPairs()
	res := &TraceResult{Result: *newResult(numPairs)}
	var progressMu sync.Mutex

	states := make([]*platformShardState, len(pt.Shards))
	for i := range pt.Shards {
		s := &pt.Shards[i]
		labeled := clustergraph.New(s.NumObjects)
		scanner := NewIncrementalScanner(s.NumObjects, s.Order)
		states[i] = &platformShardState{
			s:         s,
			ro:        s.shardRunOpts(ro.Ctx, ro.Progress, &progressMu),
			res:       *newResult(len(s.Order)),
			labeled:   labeled,
			published: make([]bool, len(s.Order)),
			unlabeled: len(s.Order),
			scanner:   scanner,
			ded:       newIncrementalDeducer(s.NumObjects, s.Order, labeled),
			batch:     make([]Pair, 0, scanner.maxBatch()),
		}
	}

	// finish merges the per-shard results; PublishSizes and Availability
	// were already recorded globally as they happened.
	finish := func() {
		for _, st := range states {
			mergeShardResult(&res.Result, st.s, &st.res)
			res.Conflicts += st.conflicts
		}
	}

	// publish sends one shard's newly mandatory pairs to the platform,
	// translated to global coordinates. One publish event per shard per
	// round keeps traces attributable to components.
	publish := func(st *platformShardState) {
		st.batch, _ = st.scanner.scan(st.batch[:0], st.res.Labels, st.published, nil, nil)
		if len(st.batch) == 0 {
			return
		}
		global := make([]Pair, len(st.batch))
		for i, p := range st.batch {
			st.published[p.ID] = true
			global[i] = st.s.Global[p.ID]
		}
		st.outstanding += len(global)
		pf.Publish(global)
		st.ro.emitRound(len(res.PublishSizes), len(global))
		res.PublishSizes = append(res.PublishSizes, len(global))
	}

	unlabeled := numPairs
	deducePair := func(st *platformShardState, q Pair) {
		if st.res.Labels[q.ID] != Unlabeled || st.published[q.ID] {
			return
		}
		switch st.labeled.Deduce(q.A, q.B) {
		case clustergraph.DeducedMatching:
			st.res.Labels[q.ID] = Matching
			st.res.NumDeduced++
			st.unlabeled--
			unlabeled--
			st.ro.emitPair(EventPairDeduced, q, Matching)
		case clustergraph.DeducedNonMatching:
			st.res.Labels[q.ID] = NonMatching
			st.res.NumDeduced++
			st.unlabeled--
			unlabeled--
			st.ro.emitPair(EventPairDeduced, q, NonMatching)
		}
	}

	for _, st := range states {
		publish(st)
	}
	for unlabeled > 0 {
		if err := ro.err(); err != nil {
			// Same contract as the unsharded driver: published-but-
			// unanswered pairs are swept too — no more answers are coming.
			for _, st := range states {
				deduceRemaining(st.labeled, st.s.Order, &st.res, st.ro)
			}
			finish()
			return res, err
		}
		if pf.Available() == 0 {
			// Safety net: the per-shard refills below keep every live
			// component supplied, so reaching a fully drained platform with
			// pairs still unlabeled means a shard's scan stalled.
			for _, st := range states {
				if st.unlabeled > 0 {
					publish(st)
				}
			}
			if pf.Available() == 0 {
				// A context-cancelling platform wrapper may cancel the
				// session and suppress the publishes it was handed; that is
				// a cancellation, not a stalled scan.
				if err := ro.err(); err != nil {
					for _, st := range states {
						deduceRemaining(st.labeled, st.s.Order, &st.res, st.ro)
					}
					finish()
					return res, err
				}
				return nil, fmt.Errorf("core: platform drained with %d pairs unlabeled", unlabeled)
			}
		}
		p, l, ok := pf.NextLabel()
		if !ok {
			// A platform wrapper may wake a blocked NextLabel with no answer
			// when the session is cancelled; keep the partial result.
			if err := ro.err(); err != nil {
				for _, st := range states {
					deduceRemaining(st.labeled, st.s.Order, &st.res, st.ro)
				}
				finish()
				return res, err
			}
			return nil, fmt.Errorf("core: platform returned no label with %d pairs available", pf.Available())
		}
		if err := checkAnswer(p, l); err != nil {
			if cerr := ro.err(); cerr != nil {
				for _, st := range states {
					deduceRemaining(st.labeled, st.s.Order, &st.res, st.ro)
				}
				finish()
				return res, cerr
			}
			return nil, err
		}
		if p.ID < 0 || p.ID >= numPairs {
			return nil, fmt.Errorf("core: platform returned unknown pair %v", p)
		}
		si, li := pt.Locate(p.ID)
		st := states[si]
		lp := st.s.Order[li]
		if st.res.Labels[lp.ID] != Unlabeled {
			return nil, fmt.Errorf("core: platform relabeled pair %v", p)
		}
		visit, insertErr := st.ded.insert(lp.A, lp.B, l == Matching)
		if insertErr != nil {
			if !errors.Is(insertErr, clustergraph.ErrConflict) {
				return nil, fmt.Errorf("core: platform labeling: %w", insertErr)
			}
			// First knowledge wins, as in the unsharded driver: keep the
			// label implied by the component's earlier answers.
			st.conflicts++
			if st.labeled.Deduce(lp.A, lp.B) == clustergraph.DeducedMatching {
				l = Matching
			} else {
				l = NonMatching
			}
			st.ro.emitPair(EventConflictOverridden, lp, l)
		}
		st.res.Labels[lp.ID] = l
		st.res.Crowdsourced[lp.ID] = true
		st.res.NumCrowdsourced++
		st.ro.emitPair(EventPairCrowdsourced, lp, l)
		st.outstanding--
		st.unlabeled--
		unlabeled--
		for m := visit; m >= 0; {
			for _, pos := range st.ded.incident(m) {
				deducePair(st, st.s.Order[pos])
			}
			if m = st.ded.next[m]; m == visit {
				break
			}
		}
		switch {
		case opts.Instant:
			// Instant decision, per component: only a non-matching answer
			// can make new pairs of this component mandatory.
			if l == NonMatching {
				publish(st)
			}
		case st.outstanding == 0 && st.unlabeled > 0:
			// Plain mode: this component's round just drained, so its next
			// round goes out now — no waiting on the other components'
			// in-flight answers. Within the component the round structure
			// is exactly the unsharded driver's (rounds are
			// component-local), so the crowdsourced set is unchanged; only
			// the wall-clock interleaving improves.
			publish(st)
		}
		res.Availability = append(res.Availability, pf.Available())
	}
	finish()
	return res, nil
}
