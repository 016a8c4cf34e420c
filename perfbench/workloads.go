package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"crowdjoin"
	"crowdjoin/internal/candgen"
	"crowdjoin/internal/dataset"
	"crowdjoin/internal/metrics"
)

// threshold is the matcher threshold of every workload (the paper's
// Paper@0.3 operating point).
const threshold = 0.3

// outcome is the deterministic result of one op. Every op of a workload
// and seed must repeat the first op's outcome exactly, traced or not.
type outcome struct {
	Questions int     // pairs put to the crowd; replayed and triaged answers excluded
	Rounds    int     // parallel rounds, platform publishes, or the server's rounds
	Hours     float64 // simulated AMT completion time (paper-amt only)
	F1        float64 // pairwise F1 of the clusters against the ground truth
	Clusters  int
	Pairs     int // candidate pairs
}

// opResult is one op's outcome plus the counts the per-layer report uses.
type opResult struct {
	outcome
	records        int // records joined
	deduced        int
	conflicts      int
	replayed       int
	appendPairs    int
	hits           int
	triageAccepted int
	triageRejected int
	journalBytes   int64
	resultBytes    int
	jobID          string
}

// orders is how many record orders a seed draws. Ops cycle through them,
// and the reported crowd counts are means over them: the number of
// parallel rounds, for one, moves by one or two with the order in which
// equally likely pairs are labeled, so one order per seed would make the
// count jump by a tenth from seed to seed; with 16 orders the quartiles
// of the Product mean were still 4% apart over ten seeds.
const orders = 32

// instance is a workload after set-up, ready to run ops.
type instance interface {
	// op runs one op for client c on record order v (0 <= v < orders); tr
	// is nil in the untraced run.
	op(c, v int, tr *opTrace) (opResult, error)
	close() error
}

// workload is one named benchmark workload.
type workload struct {
	name    string
	clients int
	// setup generates the workload's inputs from seed and starts what the
	// ops need. dir is a private work directory.
	setup func(seed int64, smoke bool, dir string) (instance, error)
}

// The four workloads. Each stresses a different set of layers; README.md
// maps every per-layer metric to the end-to-end metric it should move and
// on which workload. Layer shares below are mean self time per op over the
// middle half of the traced ops of one 25-second --trace 1 run (seed 3,
// 2-vCPU x86-64 VM).
var workloads = []workload{
	// paper-batch: the one-shot read path. Raw Paper texts go through
	// Join.Run with ParallelStrategy and an instant truth BatchOracle, no
	// journal, concurrency 1; one op is NewJoin, Run, Clusters.
	// Why: candidate generation dominates (candgen.probe 50%,
	// candgen.scorer 32%, core.label 14%, unionfind 2%), so a candgen or
	// tokenizer change shows here first and a labeling change barely moves
	// it.
	{name: "paper-batch", clients: 1, setup: setupPaperBatch},
	// paper-amt: the same corpus on PlatformStrategy over the AMT simulator
	// with instant decisions and a file journal.
	// Why: the platform labeling loop is almost all of the op (core.label
	// self 95%, candgen 4%, journal 0.8%, simulator 0.4%); it carries the
	// paper's simulated completion hours and is the only workload on the
	// platform crowd surface and the library journal.
	{name: "paper-amt", clients: 1, setup: setupPaperAMT},
	// product-stream: the write path. A bipartite Product session starts
	// with 1/8 of each source, then takes 7 steps of AppendAcross followed
	// by Run on ParallelStrategy with the in-memory answer cache; one op is
	// one whole session.
	// Why: the incremental candidate index is most of the op
	// (candgen.append 79%, stream.run 12%, unionfind 8%); it is the only
	// workload on the stream engine, and answers replayed from the session
	// cache must keep crowd_questions fixed.
	{name: "product-stream", clients: 1, setup: setupProductStream},
	// paper-server: crowdjoind over HTTP on a loopback listener with one
	// crowd worker (see serverWorkers), two closed-loop clients, each
	// submitting the Paper corpus as one non-streaming platform job
	// (instant, concurrency 2, triage bands 0.7/0.35), polling its status
	// every 5 ms until terminal and fetching the result; one op is one job.
	// Why: the only workload on the HTTP/JSON, scheduler, tenant, store,
	// sharded-platform and triage layers (server.run self 45%, server.poll
	// 35%, server.result 12%, server.submit 7%).
	{name: "paper-server", clients: 2, setup: setupPaperServer},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// corpus is a generated dataset flattened into what the ops need: texts
// in object order, the ground-truth entity of each object, the number of
// truly matching pairs (the recall denominator), and a crowd that answers
// whole rounds instantly from the ground truth.
type corpus struct {
	texts       []string
	ents        []int32
	trueMatches int
	truth       crowdjoin.BatchOracle
}

func newCorpus(d *dataset.Dataset, order []int32) corpus {
	c := corpus{trueMatches: d.TrueMatchingPairs()}
	for _, id := range order {
		c.texts = append(c.texts, d.Records[id].Text())
		c.ents = append(c.ents, d.Records[id].Entity)
	}
	c.truth = c.truthBatch()
	return c
}

// shuffled returns ids in an order drawn from rng. The workloads keep the
// repository's calibrated Paper and Product datasets and let the seed
// choose the order their records arrive in: a dataset generated from
// another seed has a different size of candidate set and of crowd cost
// (their quartiles spread by a quarter over five seeds), which would drown
// any change to the program in the choice of input.
func shuffled(ids []int32, rng *rand.Rand) []int32 {
	out := make([]int32, len(ids))
	for i, j := range rng.Perm(len(ids)) {
		out[i] = ids[j]
	}
	return out
}

// paperCorpora is the Cora-style Paper dataset in each of the seed's
// record orders; smoke shrinks it so the benchmark's own tests run in
// seconds.
func paperCorpora(seed int64, smoke bool) []corpus {
	cfg := dataset.DefaultCoraConfig()
	if smoke {
		cfg.Records, cfg.LargestCluster = 120, 12
	}
	d := dataset.GenerateCora(cfg)
	ids := make([]int32, d.Len())
	for i := range ids {
		ids[i] = int32(i)
	}
	rng := rand.New(rand.NewSource(seed))
	cs := make([]corpus, orders)
	for v := range cs {
		cs[v] = newCorpus(d, shuffled(ids, rng))
	}
	return cs
}

func (c corpus) matches(a, b int32) bool { return c.ents[a] == c.ents[b] }

func (c corpus) truthBatch() crowdjoin.BatchOracle {
	return crowdjoin.BatchOracleFunc(func(ps []crowdjoin.Pair) []crowdjoin.Label {
		ls := make([]crowdjoin.Label, len(ps))
		for i, p := range ps {
			ls[i] = crowdjoin.NonMatching
			if c.matches(p.A, p.B) {
				ls[i] = crowdjoin.Matching
			}
		}
		return ls
	})
}

// result fills the outcome shared by every library-driven op.
func (c corpus) result(res *crowdjoin.JoinResult, clusters [][]int32) opResult {
	return opResult{
		outcome: outcome{
			Questions: res.NumCrowdsourced - res.Replayed,
			F1:        metrics.EvaluateClusters(clusters, c.ents, c.trueMatches).F1,
			Clusters:  len(clusters),
			Pairs:     len(res.Order),
		},
		records:   len(c.texts),
		deduced:   res.NumDeduced,
		conflicts: res.Conflicts,
		replayed:  res.Replayed,
	}
}

// textDataset wraps texts the way the Join facade does before candidate
// generation, so the traced run can call candgen directly.
func textDataset(texts []string) *dataset.Dataset {
	d := &dataset.Dataset{Name: "texts", NumEntities: 1}
	for i, t := range texts {
		d.Records = append(d.Records, dataset.Record{
			ID:     int32(i),
			Source: "a",
			Fields: []dataset.Field{{Name: "text", Value: t}},
		})
	}
	return d
}

// tracedCandidates is candidate generation timed at candgen's entry
// points: scorer build (tokenizing included) and the probe join, whose
// result comes back sorted by likelihood.
func tracedCandidates(tr *opTrace, texts []string) ([]crowdjoin.Pair, error) {
	var (
		d     *dataset.Dataset
		s     *candgen.Scorer
		pairs []crowdjoin.Pair
		err   error
	)
	tr.timed("candgen.scorer", tr.root, func() {
		d = textDataset(texts)
		s = candgen.NewScorer(d, candgen.Unweighted)
	})
	tr.timed("candgen.probe", tr.root, func() { pairs, err = candgen.Candidates(d, s, threshold) })
	return pairs, err
}

// tracedOrder applies the session's default ordering under a core span;
// the traced op then labels the result with OrderAsGiven.
func tracedOrder(tr *opTrace, pairs []crowdjoin.Pair) []crowdjoin.Pair {
	var order []crowdjoin.Pair
	tr.timed("core.order", tr.root, func() { order = crowdjoin.ExpectedOrder(pairs) })
	return order
}

// runLabel runs j under the core.label span id label (reserved so the
// crowd and journal wrappers can name it as their parent).
func runLabel(tr *opTrace, label int32, j *crowdjoin.Join) (*crowdjoin.JoinResult, error) {
	start := tr.t.now()
	res, err := j.Run(context.Background())
	tr.record(label, tr.root, "core.label", start)
	return res, err
}

// clustersOf computes the result's clusters, under a span when traced.
func clustersOf(tr *opTrace, res *crowdjoin.JoinResult) ([][]int32, error) {
	if tr == nil {
		return res.Clusters()
	}
	var (
		cl  [][]int32
		err error
	)
	tr.timed("unionfind.clusters", tr.root, func() { cl, err = res.Clusters() })
	return cl, err
}

type paperBatch struct{ cs []corpus }

func setupPaperBatch(seed int64, smoke bool, _ string) (instance, error) {
	return &paperBatch{cs: paperCorpora(seed, smoke)}, nil
}

func (w *paperBatch) close() error { return nil }

func (w *paperBatch) op(_, v int, tr *opTrace) (opResult, error) {
	c := w.cs[v]
	var (
		res *crowdjoin.JoinResult
		err error
	)
	if tr == nil {
		j, jerr := crowdjoin.NewJoin(
			crowdjoin.WithTexts(c.texts),
			crowdjoin.WithMatcher(crowdjoin.Matcher{Threshold: threshold}),
			crowdjoin.WithStrategy(crowdjoin.ParallelStrategy),
			crowdjoin.WithBatchOracle(c.truth),
		)
		if jerr != nil {
			return opResult{}, jerr
		}
		res, err = j.Run(context.Background())
	} else {
		pairs, cerr := tracedCandidates(tr, c.texts)
		if cerr != nil {
			return opResult{}, cerr
		}
		order := tracedOrder(tr, pairs)
		label := tr.newID()
		j, jerr := crowdjoin.NewJoin(
			crowdjoin.WithPairs(len(c.texts), order),
			crowdjoin.WithOrder(crowdjoin.OrderAsGiven),
			crowdjoin.WithStrategy(crowdjoin.ParallelStrategy),
			crowdjoin.WithBatchOracle(&tracedBatch{inner: c.truth, o: tr, parent: label}),
		)
		if jerr != nil {
			return opResult{}, jerr
		}
		res, err = runLabel(tr, label, j)
	}
	if err != nil {
		return opResult{}, err
	}
	clusters, err := clustersOf(tr, res)
	if err != nil {
		return opResult{}, err
	}
	r := c.result(res, clusters)
	r.Rounds = len(res.RoundSizes)
	return r, nil
}

type paperAMT struct {
	cs  []corpus
	dir string
}

func setupPaperAMT(seed int64, smoke bool, dir string) (instance, error) {
	return &paperAMT{cs: paperCorpora(seed, smoke), dir: dir}, nil
}

func (w *paperAMT) close() error { return nil }

func (w *paperAMT) op(client, v int, tr *opTrace) (r opResult, err error) {
	c := w.cs[v]
	// The simulated crowd keeps its default seed: it is the system's
	// environment, like the truth it answers from, not an input.
	cfg := crowdjoin.DefaultAMTConfig()
	path := filepath.Join(w.dir, fmt.Sprintf("journal-%d.log", client))
	var (
		sim      *crowdjoin.AMTSimulator
		f        *os.File
		res      *crowdjoin.JoinResult
		jrnBytes int64 // counted by the traced journal only
	)
	defer func() {
		if f != nil {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		if rerr := os.Remove(path); rerr != nil && err == nil {
			err = rerr
		}
	}()
	if tr == nil {
		if sim, err = crowdjoin.NewAMTSimulator(c.matches, cfg); err != nil {
			return opResult{}, err
		}
		if f, err = crowdjoin.OpenJournalFile(path); err != nil {
			return opResult{}, err
		}
		j, jerr := crowdjoin.NewJoin(
			crowdjoin.WithTexts(c.texts),
			crowdjoin.WithMatcher(crowdjoin.Matcher{Threshold: threshold}),
			crowdjoin.WithStrategy(crowdjoin.PlatformStrategy),
			crowdjoin.WithPlatform(sim),
			crowdjoin.WithInstantDecisions(true),
			crowdjoin.WithJournal(f),
		)
		if jerr != nil {
			return opResult{}, jerr
		}
		res, err = j.Run(context.Background())
	} else {
		pairs, cerr := tracedCandidates(tr, c.texts)
		if cerr != nil {
			return opResult{}, cerr
		}
		order := tracedOrder(tr, pairs)
		tr.timed("crowd.new", tr.root, func() { sim, err = crowdjoin.NewAMTSimulator(c.matches, cfg) })
		if err != nil {
			return opResult{}, err
		}
		tr.timed("journal.open", tr.root, func() { f, err = crowdjoin.OpenJournalFile(path) })
		if err != nil {
			return opResult{}, err
		}
		label := tr.newID()
		jrn := &tracedJournal{f: f, o: tr, parent: label}
		j, jerr := crowdjoin.NewJoin(
			crowdjoin.WithPairs(len(c.texts), order),
			crowdjoin.WithOrder(crowdjoin.OrderAsGiven),
			crowdjoin.WithStrategy(crowdjoin.PlatformStrategy),
			crowdjoin.WithPlatform(&tracedPlatform{inner: sim, o: tr, parent: label}),
			crowdjoin.WithInstantDecisions(true),
			crowdjoin.WithJournal(jrn),
		)
		if jerr != nil {
			return opResult{}, jerr
		}
		res, err = runLabel(tr, label, j)
		jrnBytes = jrn.bytes
	}
	if err != nil {
		return opResult{}, err
	}
	clusters, err := clustersOf(tr, res)
	if err != nil {
		return opResult{}, err
	}
	r = c.result(res, clusters)
	r.Rounds = len(res.PublishSizes)
	r.Hours = sim.Now()
	r.hits = sim.HITs()
	r.journalBytes = jrnBytes
	return r, nil
}

// streamSteps is the number of equal slices each Product source is cut
// into: the session starts with the first and appends the rest one by one.
const streamSteps = 8

// streamOrder is one record order of the Product session: the slices
// each step appends, and the corpus in session object order.
type streamOrder struct {
	a, b [streamSteps][]string
	c    corpus
}

type productStream struct{ vs []streamOrder }

func setupProductStream(seed int64, smoke bool, _ string) (instance, error) {
	cfg := dataset.DefaultAbtBuyConfig()
	if smoke {
		cfg.AbtRecords, cfg.BuyRecords = 96, 104
	}
	d := dataset.GenerateAbtBuy(cfg)
	rng := rand.New(rand.NewSource(seed))
	w := &productStream{vs: make([]streamOrder, orders)}
	for v := range w.vs {
		so := &w.vs[v]
		// A session numbers a batch's a-records before its b-records, so
		// the object order interleaves the two sources slice by slice.
		srcA, srcB := shuffled(d.SourceA, rng), shuffled(d.SourceB, rng)
		var order []int32
		for i := 0; i < streamSteps; i++ {
			sa, sb := slice(srcA, i), slice(srcB, i)
			order = append(append(order, sa...), sb...)
			for _, id := range sa {
				so.a[i] = append(so.a[i], d.Records[id].Text())
			}
			for _, id := range sb {
				so.b[i] = append(so.b[i], d.Records[id].Text())
			}
		}
		so.c = newCorpus(d, order)
	}
	return w, nil
}

// slice returns the i-th of streamSteps near-equal slices of ids.
func slice(ids []int32, i int) []int32 {
	return ids[len(ids)*i/streamSteps : len(ids)*(i+1)/streamSteps]
}

func (w *productStream) close() error { return nil }

func (w *productStream) op(_, v int, tr *opTrace) (opResult, error) {
	so := &w.vs[v]
	crowd := so.c.truth
	var tb *tracedBatch
	if tr != nil {
		tb = &tracedBatch{inner: crowd, o: tr}
		crowd = tb
	}
	j, err := crowdjoin.NewJoin(
		crowdjoin.WithTextsAcross(so.a[0], so.b[0]),
		crowdjoin.WithMatcher(crowdjoin.Matcher{Threshold: threshold}),
		crowdjoin.WithStrategy(crowdjoin.ParallelStrategy),
		crowdjoin.WithBatchOracle(crowd),
	)
	if err != nil {
		return opResult{}, err
	}
	var (
		res                                  *crowdjoin.JoinResult
		questions, rounds, replayed, appends int
	)
	for i := 1; i < streamSteps; i++ {
		var ar *crowdjoin.AppendResult
		if tr == nil {
			ar, err = j.AppendAcross(so.a[i], so.b[i])
		} else {
			tr.timed("candgen.append", tr.root, func() { ar, err = j.AppendAcross(so.a[i], so.b[i]) })
		}
		if err != nil {
			return opResult{}, err
		}
		appends += len(ar.NewPairs)
		if tr == nil {
			res, err = j.Run(context.Background())
		} else {
			tb.parent = tr.newID()
			start := tr.t.now()
			res, err = j.Run(context.Background())
			tr.record(tb.parent, tr.root, "stream.run", start)
		}
		if err != nil {
			return opResult{}, err
		}
		questions += res.NumCrowdsourced - res.Replayed
		rounds += len(res.RoundSizes)
		replayed += res.Replayed
	}
	clusters, err := clustersOf(tr, res)
	if err != nil {
		return opResult{}, err
	}
	r := so.c.result(res, clusters)
	r.Questions, r.Rounds, r.replayed, r.appendPairs = questions, rounds, replayed, appends
	return r, nil
}
