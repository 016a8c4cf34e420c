package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"crowdjoin/internal/clustergraph"
)

// referencePlatform is the from-scratch formulation of LabelOnPlatformRun —
// Algorithm 3 rebuilt from scratch at every publish and a whole-order
// deduction sweep after every answer, as Section 5.2 describes it — kept
// here as the correctness reference for the incremental scanner and
// deducer.
func referencePlatform(numObjects int, order []Pair, pf Platform, instant bool) (*TraceResult, error) {
	if err := ValidatePairs(numObjects, order); err != nil {
		return nil, err
	}
	res := &TraceResult{Result: *newResult(len(order))}
	labeled := clustergraph.New(numObjects)
	scratch := clustergraph.New(numObjects)
	published := make([]bool, len(order))
	unlabeled := len(order)

	publish := func() {
		scratch.Reset()
		batch := crowdsourceable(scratch, order, res.Labels, published)
		if len(batch) == 0 {
			return
		}
		for _, p := range batch {
			published[p.ID] = true
		}
		pf.Publish(batch)
		res.PublishSizes = append(res.PublishSizes, len(batch))
	}

	publish()
	for unlabeled > 0 {
		if pf.Available() == 0 {
			publish()
			if pf.Available() == 0 {
				return nil, fmt.Errorf("reference platform drained with %d pairs unlabeled", unlabeled)
			}
		}
		p, l, ok := pf.NextLabel()
		if !ok || res.Labels[p.ID] != Unlabeled {
			return nil, fmt.Errorf("reference platform: bad answer for %v", p)
		}
		if err := labeled.Insert(p.A, p.B, l == Matching); err != nil {
			if !errors.Is(err, clustergraph.ErrConflict) {
				return nil, err
			}
			res.Conflicts++
			l = referenceImplied(labeled, p)
		}
		res.Labels[p.ID] = l
		res.Crowdsourced[p.ID] = true
		res.NumCrowdsourced++
		unlabeled--
		unlabeled -= referenceSweep(labeled, order, &res.Result, published)
		if instant && l == NonMatching {
			publish()
		}
		res.Availability = append(res.Availability, pf.Available())
	}
	return res, nil
}

// referencePartitionedPlatform is the from-scratch formulation of
// LabelPartitionedOnPlatformRun: every component rescans from scratch and
// sweeps its whole order after each of its answers.
func referencePartitionedPlatform(pt *Partition, pf Platform, instant bool) (*TraceResult, error) {
	res := &TraceResult{Result: *newResult(pt.NumPairs())}
	type shardState struct {
		s           *Shard
		res         Result
		labeled     *clustergraph.Graph
		scratch     *clustergraph.Graph
		published   []bool
		unlabeled   int
		outstanding int
	}
	states := make([]*shardState, len(pt.Shards))
	for i := range pt.Shards {
		s := &pt.Shards[i]
		states[i] = &shardState{
			s:         s,
			res:       *newResult(len(s.Order)),
			labeled:   clustergraph.New(s.NumObjects),
			scratch:   clustergraph.New(s.NumObjects),
			published: make([]bool, len(s.Order)),
			unlabeled: len(s.Order),
		}
	}
	publish := func(st *shardState) {
		st.scratch.Reset()
		batch := crowdsourceable(st.scratch, st.s.Order, st.res.Labels, st.published)
		if len(batch) == 0 {
			return
		}
		global := make([]Pair, len(batch))
		for i, p := range batch {
			st.published[p.ID] = true
			global[i] = st.s.Global[p.ID]
		}
		st.outstanding += len(global)
		pf.Publish(global)
		res.PublishSizes = append(res.PublishSizes, len(global))
	}

	unlabeled := pt.NumPairs()
	for _, st := range states {
		publish(st)
	}
	for unlabeled > 0 {
		if pf.Available() == 0 {
			for _, st := range states {
				if st.unlabeled > 0 {
					publish(st)
				}
			}
			if pf.Available() == 0 {
				return nil, fmt.Errorf("reference sharded platform drained with %d pairs unlabeled", unlabeled)
			}
		}
		p, l, ok := pf.NextLabel()
		if !ok {
			return nil, errors.New("reference sharded platform: no answer")
		}
		si, li := pt.Locate(p.ID)
		st := states[si]
		lp := st.s.Order[li]
		if st.res.Labels[lp.ID] != Unlabeled {
			return nil, fmt.Errorf("reference sharded platform: relabeled %v", p)
		}
		if err := st.labeled.Insert(lp.A, lp.B, l == Matching); err != nil {
			if !errors.Is(err, clustergraph.ErrConflict) {
				return nil, err
			}
			res.Conflicts++
			l = referenceImplied(st.labeled, lp)
		}
		st.res.Labels[lp.ID] = l
		st.res.Crowdsourced[lp.ID] = true
		st.res.NumCrowdsourced++
		st.outstanding--
		d := 1 + referenceSweep(st.labeled, st.s.Order, &st.res, st.published)
		st.unlabeled -= d
		unlabeled -= d
		switch {
		case instant:
			if l == NonMatching {
				publish(st)
			}
		case st.outstanding == 0 && st.unlabeled > 0:
			publish(st)
		}
		res.Availability = append(res.Availability, pf.Available())
	}
	for _, st := range states {
		mergeShardResult(&res.Result, st.s, &st.res)
	}
	return res, nil
}

// referenceImplied is the label the closure of the earlier answers implies
// for a conflicting answer (first knowledge wins).
func referenceImplied(g *clustergraph.Graph, p Pair) Label {
	if g.Deduce(p.A, p.B) == clustergraph.DeducedMatching {
		return Matching
	}
	return NonMatching
}

// referenceSweep deduces every unlabeled, unpublished pair of order the
// crowd labels imply and returns how many it labeled.
func referenceSweep(g *clustergraph.Graph, order []Pair, res *Result, published []bool) int {
	n := 0
	for _, q := range order {
		if res.Labels[q.ID] != Unlabeled || published[q.ID] {
			continue
		}
		switch g.Deduce(q.A, q.B) {
		case clustergraph.DeducedMatching:
			res.Labels[q.ID] = Matching
		case clustergraph.DeducedNonMatching:
			res.Labels[q.ID] = NonMatching
		default:
			continue
		}
		res.NumDeduced++
		n++
	}
	return n
}

// noisyOracle flips the true answer for about one pair in noise+1 when
// noise > 0 — a fixed per-pair choice, so the crowd's answers do not
// depend on question order and every driver sees the same crowd.
type noisyOracle struct {
	truth *TruthOracle
	noise uint8
}

func (o noisyOracle) Label(p Pair) Label {
	l := o.truth.Label(p)
	if o.noise > 0 && (uint64(p.A)*2654435761+uint64(p.B)*40503)%(uint64(o.noise)+1) == 0 {
		return LabelOf(l != Matching)
	}
	return l
}

// retainingPlatform keeps every batch it is handed, as a real crowd
// backend may, together with a copy taken at publish time.
type retainingPlatform struct {
	Platform
	held, copies [][]Pair
}

func (r *retainingPlatform) Publish(ps []Pair) {
	r.held = append(r.held, ps)
	r.copies = append(r.copies, append([]Pair(nil), ps...))
	r.Platform.Publish(ps)
}

// platformReferenceCase is one differential run: an instance, a crowd, a
// worker policy, and the driver options.
type platformReferenceCase struct {
	numObjects int
	order      []Pair
	oracle     Oracle
	policy     SelectionPolicy
	seed       int64 // SelectRandom's worker seed
	instant    bool
	sharded    bool
}

// check runs the driver under test and its reference on identically seeded
// platforms and reports the first observable difference, or a published
// batch the driver changed after handing it out.
func (c platformReferenceCase) check() error {
	newPlatform := func() Platform {
		var rng *rand.Rand
		if c.policy == SelectRandom {
			rng = rand.New(rand.NewSource(c.seed))
		}
		return NewSimPlatform(c.oracle, c.policy, rng)
	}
	var got, want *TraceResult
	var gotErr, wantErr error
	opts := PlatformOptions{Instant: c.instant}
	pf := &retainingPlatform{Platform: newPlatform()}
	if c.sharded {
		pt, err := BuildPartition(c.numObjects, c.order)
		if err != nil {
			return err
		}
		got, gotErr = LabelPartitionedOnPlatformRun(pt, pf, opts, RunOpts{})
		want, wantErr = referencePartitionedPlatform(pt, newPlatform(), c.instant)
	} else {
		got, gotErr = LabelOnPlatformRun(c.numObjects, c.order, pf, opts, RunOpts{})
		want, wantErr = referencePlatform(c.numObjects, c.order, newPlatform(), c.instant)
	}
	if gotErr != nil || wantErr != nil {
		return fmt.Errorf("errors: driver %v, reference %v", gotErr, wantErr)
	}
	if !reflect.DeepEqual(pf.held, pf.copies) {
		return errors.New("a published batch changed after it was handed out")
	}
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"Labels", got.Labels, want.Labels},
		{"Crowdsourced", got.Crowdsourced, want.Crowdsourced},
		{"NumCrowdsourced", got.NumCrowdsourced, want.NumCrowdsourced},
		{"NumDeduced", got.NumDeduced, want.NumDeduced},
		{"Conflicts", got.Conflicts, want.Conflicts},
		{"PublishSizes", got.PublishSizes, want.PublishSizes},
		{"Availability", got.Availability, want.Availability},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			return fmt.Errorf("%s differs:\n got %v\nwant %v", f.name, f.got, f.want)
		}
	}
	return nil
}

// TestPlatformDriversMatchReference pins both platform drivers to the
// from-scratch formulation on randomized workloads: instant and plain
// modes, every worker policy, consistent and noisy crowds.
func TestPlatformDriversMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	policies := []SelectionPolicy{SelectRandom, SelectFIFO, SelectAscendingLikelihood}
	for trial := 0; trial < 30; trial++ {
		numObjects, order, truth := randomShardWorkload(rng)
		if trial%3 == 2 {
			order = RandomOrder(order, rng) // stress beyond the expected order
		}
		for _, noise := range []uint8{0, 6} {
			for _, policy := range policies {
				for _, instant := range []bool{false, true} {
					for _, sharded := range []bool{false, true} {
						c := platformReferenceCase{
							numObjects: numObjects, order: order,
							oracle: noisyOracle{truth, noise},
							policy: policy, seed: int64(trial),
							instant: instant, sharded: sharded,
						}
						if err := c.check(); err != nil {
							t.Fatalf("trial %d noise=%d policy=%v instant=%v sharded=%v: %v",
								trial, noise, policy, instant, sharded, err)
						}
					}
				}
			}
		}
	}
}

// FuzzPlatformMatchesReference is the fuzzing form of
// TestPlatformDriversMatchReference: random instances, worker seeds,
// instant flag, crowd noise level, and sharded or not.
func FuzzPlatformMatchesReference(f *testing.F) {
	f.Add(int64(1), int64(2), true, uint8(0), false, uint8(0))
	f.Add(int64(3), int64(4), false, uint8(4), true, uint8(1))
	f.Add(int64(5), int64(6), true, uint8(2), true, uint8(2))
	f.Fuzz(func(t *testing.T, instance, seed int64, instant bool, noise uint8, sharded bool, policy uint8) {
		numObjects, pairs, truth := randomInstance(rand.New(rand.NewSource(instance)), 24, 80)
		c := platformReferenceCase{
			numObjects: numObjects, order: ExpectedOrder(pairs),
			oracle: noisyOracle{truth, noise % 16},
			policy: []SelectionPolicy{SelectRandom, SelectFIFO, SelectAscendingLikelihood}[policy%3],
			seed:   seed, instant: instant, sharded: sharded,
		}
		if err := c.check(); err != nil {
			t.Fatal(err)
		}
	})
}
