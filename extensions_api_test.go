package crowdjoin_test

import (
	"math/rand"
	"testing"

	"crowdjoin"
)

func TestLabelSequentialOneToOneFacade(t *testing.T) {
	// a0 matches b0; a1 and a2 court b0 too. One crowd question suffices.
	pairs := []crowdjoin.Pair{
		{ID: 0, A: 0, B: 3, Likelihood: 0.9},
		{ID: 1, A: 1, B: 3, Likelihood: 0.5},
		{ID: 2, A: 2, B: 3, Likelihood: 0.4},
	}
	truth := &crowdjoin.TruthOracle{Entity: []int32{0, 1, 2, 0}}
	res, err := crowdjoin.LabelSequentialOneToOne(4, pairs, truth)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCrowdsourced != 1 || res.NumConstraintDeduced != 2 {
		t.Errorf("crowdsourced=%d constraint-deduced=%d, want 1 and 2",
			res.NumCrowdsourced, res.NumConstraintDeduced)
	}
}

func TestLabelWithBudgetFacade(t *testing.T) {
	m := crowdjoin.Matcher{Threshold: 0.3}
	pairs, err := m.Candidates(exampleTexts)
	if err != nil {
		t.Fatal(err)
	}
	order := crowdjoin.ExpectedOrder(pairs)
	res, err := crowdjoin.LabelWithBudget(len(exampleTexts), order, exampleOracle(), 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCrowdsourced != 1 {
		t.Errorf("crowdsourced %d, want exactly the budget 1", res.NumCrowdsourced)
	}
	if res.NumCrowdsourced+res.NumDeduced+res.NumGuessed != len(pairs) {
		t.Errorf("labels don't partition: %d+%d+%d != %d",
			res.NumCrowdsourced, res.NumDeduced, res.NumGuessed, len(pairs))
	}
}

func TestLabelOnPlatformOptsFacade(t *testing.T) {
	m := crowdjoin.Matcher{Threshold: 0.3}
	pairs, err := m.Candidates(exampleTexts)
	if err != nil {
		t.Fatal(err)
	}
	order := crowdjoin.ExpectedOrder(pairs)
	for _, opts := range []crowdjoin.PlatformOptions{{}, {Instant: true}} {
		pf := crowdjoin.NewSimulatedCrowd(exampleOracle(), crowdjoin.SelectRandom, rand.New(rand.NewSource(2)))
		res, err := crowdjoin.LabelOnPlatformOpts(len(exampleTexts), order, pf, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		for _, p := range pairs {
			want := crowdjoin.Matching
			if exampleEntity[p.A] != exampleEntity[p.B] {
				want = crowdjoin.NonMatching
			}
			if res.Labels[p.ID] != want {
				t.Errorf("%+v: pair %v labeled %v, want %v", opts, p, res.Labels[p.ID], want)
			}
		}
	}
}
