package core

import (
	"errors"
	"fmt"
	"slices"

	"crowdjoin/internal/clustergraph"
)

// Platform is the crowdsourcing-platform surface the labeling drivers need:
// publish pairs as available work, observe labeled results one at a time,
// and inspect how much published work is still outstanding.
//
// Implementations decide which outstanding pair gets labeled next (worker
// behaviour): e.g. uniformly at random, or lowest likelihood first, which is
// the non-matching-first optimization of Section 5.2.
type Platform interface {
	// Publish makes ps available to the crowd.
	Publish(ps []Pair)
	// NextLabel returns the next labeled pair and its answer. ok is false
	// when no published pair remains unlabeled.
	NextLabel() (p Pair, l Label, ok bool)
	// Available returns the number of published, not-yet-labeled pairs.
	Available() int
}

// TraceResult extends Result with the series needed for Figure 15 and the
// publish bookkeeping needed for HIT accounting.
type TraceResult struct {
	Result
	// PublishSizes[i] is the number of pairs made available by the i-th
	// publish event (the initial publish is event 0).
	PublishSizes []int
	// Availability[k] is Platform.Available() right after the (k+1)-th
	// labeled pair was processed (including any republish it triggered) —
	// the y-series of Figure 15 with x = k+1 crowdsourced pairs.
	Availability []int
	// Conflicts counts crowd answers that contradicted the transitive
	// closure of earlier answers and were overridden by the implied label
	// (possible only with an inconsistent crowd and in-flight work).
	Conflicts int
}

// PlatformOptions configures LabelOnPlatformOpts.
type PlatformOptions struct {
	// Instant applies the instant-decision optimization (Section 5.2):
	// republish newly mandatory pairs after every answer instead of
	// waiting for the platform to drain.
	Instant bool
}

// LabelOnPlatform drives the parallel labeling algorithm through a Platform.
//
// With instant=false it behaves like plain Parallel: a new round of pairs is
// published only after the platform drains. With instant=true it applies the
// instant-decision optimization: after every labeled pair it immediately
// publishes every pair that has become mandatory. Per the paper's
// observation under non-matching-first, only a non-matching answer can make
// new pairs mandatory — a matching answer confirms what Algorithm 3 already
// assumed — so the recomputation is skipped on matching answers.
//
// The work per answer is incremental: each republish runs Algorithm 3 on
// an IncrementalScanner, which replays only the order's active window, and
// the post-answer deduction re-checks only the pairs incident to the
// cluster the answer touched. Publishes and labels are those of the
// from-scratch formulation (full rescan, whole-order deduction sweep).
func LabelOnPlatform(numObjects int, order []Pair, pf Platform, instant bool) (*TraceResult, error) {
	return LabelOnPlatformOpts(numObjects, order, pf, PlatformOptions{Instant: instant})
}

// LabelOnPlatformOpts is LabelOnPlatform with explicit options.
func LabelOnPlatformOpts(numObjects int, order []Pair, pf Platform, opts PlatformOptions) (*TraceResult, error) {
	return LabelOnPlatformRun(numObjects, order, pf, opts, RunOpts{})
}

// LabelOnPlatformRun is LabelOnPlatformOpts with session options: context
// cancellation (partial result + ctx error, see RunOpts.Ctx) and progress
// events. On cancellation the driver stops consuming answers; pairs whose
// published HITs were still in flight are deduced where the collected
// answers allow and stay Unlabeled otherwise.
func LabelOnPlatformRun(numObjects int, order []Pair, pf Platform, opts PlatformOptions, ro RunOpts) (*TraceResult, error) {
	if err := ValidatePairs(numObjects, order); err != nil {
		return nil, err
	}
	res := &TraceResult{Result: *newResult(len(order))}
	labeled := clustergraph.New(numObjects)
	published := make([]bool, len(order))
	unlabeled := len(order)
	instant := opts.Instant

	scanner := NewIncrementalScanner(numObjects, order)
	ded := newIncrementalDeducer(numObjects, order, labeled)
	// scratch is the reused scan output; each publish hands out an exact
	// copy.
	scratch := make([]Pair, 0, scanner.maxBatch())

	// deducePair applies the post-answer deduction to one candidate pair.
	deducePair := func(q Pair) {
		if res.Labels[q.ID] != Unlabeled || published[q.ID] {
			return
		}
		switch labeled.Deduce(q.A, q.B) {
		case clustergraph.DeducedMatching:
			res.Labels[q.ID] = Matching
			res.NumDeduced++
			unlabeled--
			ro.emitPair(EventPairDeduced, q, Matching)
		case clustergraph.DeducedNonMatching:
			res.Labels[q.ID] = NonMatching
			res.NumDeduced++
			unlabeled--
			ro.emitPair(EventPairDeduced, q, NonMatching)
		}
	}

	publish := func() {
		scratch, _ = scanner.scan(scratch[:0], res.Labels, published, nil, nil)
		if len(scratch) == 0 {
			return
		}
		// The platform may retain what it is handed, so it gets its own
		// exactly sized copy.
		batch := slices.Clone(scratch)
		for _, p := range batch {
			published[p.ID] = true
		}
		pf.Publish(batch)
		ro.emitRound(len(res.PublishSizes), len(batch))
		res.PublishSizes = append(res.PublishSizes, len(batch))
	}

	publish()
	for unlabeled > 0 {
		if err := ro.err(); err != nil {
			// Published-but-unanswered pairs are fair game for the final
			// sweep: no answer is coming for them anymore, so the deduced
			// label is the best (and only) information available.
			deduceRemaining(labeled, order, &res.Result, ro)
			return res, err
		}
		if pf.Available() == 0 {
			// Plain Parallel republishes only here; instant mode reaches
			// this only when the remaining pairs were all deduced, in which
			// case publish is a no-op and the loop exits below.
			publish()
			if pf.Available() == 0 {
				// A context-cancelling platform wrapper (rate limiter,
				// budget guard) may cancel the session and suppress the
				// publish it was handed; that is a cancellation, not a
				// drained platform.
				if err := ro.err(); err != nil {
					deduceRemaining(labeled, order, &res.Result, ro)
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
				deduceRemaining(labeled, order, &res.Result, ro)
				return res, err
			}
			return nil, fmt.Errorf("core: platform returned no label with %d pairs available", pf.Available())
		}
		if err := checkAnswer(p, l); err != nil {
			if cerr := ro.err(); cerr != nil {
				deduceRemaining(labeled, order, &res.Result, ro)
				return res, cerr
			}
			return nil, err
		}
		if res.Labels[p.ID] != Unlabeled {
			return nil, fmt.Errorf("core: platform relabeled pair %v", p)
		}
		visit, insertErr := ded.insert(p.A, p.B, l == Matching)
		if insertErr != nil {
			if !errors.Is(insertErr, clustergraph.ErrConflict) {
				return nil, fmt.Errorf("core: platform labeling: %w", insertErr)
			}
			// A noisy crowd answered against the transitive closure of
			// earlier answers. This can only happen when the pair was
			// published before later answers made it deducible (in-flight
			// HITs). First knowledge wins: keep the implied label. The pair
			// still counts as crowdsourced — it was published and paid for.
			res.Conflicts++
			if labeled.Deduce(p.A, p.B) == clustergraph.DeducedMatching {
				l = Matching
			} else {
				l = NonMatching
			}
			ro.emitPair(EventConflictOverridden, p, l)
		}
		res.Labels[p.ID] = l
		res.Crowdsourced[p.ID] = true
		res.NumCrowdsourced++
		ro.emitPair(EventPairCrowdsourced, p, l)
		unlabeled--
		// Deduce everything that now follows from the crowd labels: only
		// pairs incident to the cluster the answer touched can have become
		// deducible. Published pairs are excluded: they are already paid
		// for and their crowd answer is on its way, so the crowd label
		// wins. (With an inconsistent crowd a published pair can become
		// deducible before its HIT completes; deducing it would
		// double-label it.)
		for m := visit; m >= 0; {
			for _, pos := range ded.incident(m) {
				deducePair(order[pos])
			}
			if m = ded.next[m]; m == visit {
				break
			}
		}
		if instant && l == NonMatching {
			publish()
		}
		res.Availability = append(res.Availability, pf.Available())
	}
	return res, nil
}
