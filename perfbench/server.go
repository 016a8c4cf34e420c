package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crowdjoin"
	"crowdjoin/internal/metrics"
	"crowdjoin/internal/server"
)

// pollInterval is how long a client waits between status polls: the
// interval of the repository's own client example (examples/joinserver).
// In the traced run every poll is a server.poll span, so the polls' share
// of a job shows apart from the daemon's work.
const pollInterval = 5 * time.Millisecond

// The paper-server job: the default platform strategy with instant
// decisions, two components at once, and similarity triage.
const (
	// serverWorkers is the simulated crowd's capacity. One worker answers
	// each job's questions in the order they were published, as the
	// library run does. With two workers a job's answers arrive in an
	// order that depends on timing, and about one job in 800 published one
	// round more or fewer, or asked one crowd question more or fewer, than
	// the library run of the same spec; TestServerJobsMatchLibrary keeps
	// that defect of the server in view.
	serverWorkers     = 1
	serverConcurrency = 2
	serverAccept      = 0.7
	serverReject      = 0.35
)

// serverOrder is one record order of the paper-server job: the corpus,
// the POST /jobs body, and the direct library run every job's result must
// equal.
type serverOrder struct {
	c      corpus
	spec   []byte
	want   *crowdjoin.JoinResult
	wantCl [][]int32
}

// restartEvery is how many jobs one server instance runs before the
// benchmark restarts crowdjoind on an empty data directory. The daemon
// keeps every finished job's event history and result in memory, about
// 3 MB a job here; without restarts a 25-second run held 840 MB. The
// runner restarts it with no job in flight and keeps the restart out of
// the measured time (see resetter).
const restartEvery = 64

type paperServer struct {
	vs      []serverOrder
	workers int    // crowdjoind's Config.Workers
	root    string // each server instance runs in root/<gen>
	client  *http.Client
	jobs    atomic.Int64 // jobs submitted to the current instance

	// Written only by start and reset, which run with no job in flight.
	gen int
	dir string
	srv *server.Server
	ts  *httptest.Server

	// tracing is set for a traced run; WrapOracle then times the crowd
	// calls of every job, collected per job id until the op that owns the
	// job claims them.
	tracing atomic.Bool
	mu      sync.Mutex
	oracle  map[string][][2]int64 // guarded by mu; start and end of each call
	tr      *tracer
}

func setupPaperServer(seed int64, smoke bool, dir string) (instance, error) {
	return newPaperServer(seed, smoke, dir, serverWorkers)
}

func newPaperServer(seed int64, smoke bool, dir string, workers int) (*paperServer, error) {
	w := &paperServer{
		workers: workers,
		root:    dir,
		client:  &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
		oracle:  map[string][][2]int64{},
	}
	for _, c := range paperCorpora(seed, smoke) {
		recs := make([]server.Record, len(c.texts))
		for i, t := range c.texts {
			recs[i] = server.Record{Text: t, Entity: strconv.Itoa(int(c.ents[i]))}
		}
		spec, err := json.Marshal(server.JobSpec{
			Records:     recs,
			Instant:     true,
			Concurrency: serverConcurrency,
			Accept:      serverAccept,
			Reject:      serverReject,
		})
		if err != nil {
			return nil, err
		}
		w.vs = append(w.vs, serverOrder{c: c, spec: spec})
	}
	return w, w.start()
}

// start runs a server instance on an empty data directory.
func (w *paperServer) start() error {
	w.dir = filepath.Join(w.root, strconv.Itoa(w.gen))
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	srv, err := server.New(server.Config{
		DataDir:    w.dir,
		Workers:    w.workers,
		WrapOracle: w.wrapOracle,
	})
	if err != nil {
		return err
	}
	w.srv, w.ts = srv, httptest.NewServer(srv)
	return nil
}

// close stops the server instance and removes its data directory.
func (w *paperServer) close() error {
	w.client.CloseIdleConnections()
	w.ts.Close()
	err := w.srv.Close()
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	return err
}

// due reports whether the instance has run restartEvery jobs.
func (w *paperServer) due() bool { return w.jobs.Load() >= restartEvery }

// reset restarts crowdjoind: it replaces the server instance with a new
// one on an empty data directory. No job may be in flight.
func (w *paperServer) reset() error {
	if err := w.close(); err != nil {
		return err
	}
	w.gen++
	w.jobs.Store(0)
	return w.start()
}

// references runs each order's job spec directly on the library, wired as
// TestServerDifferential wires it. It is the benchmark's correctness
// oracle, not part of the server's set-up, so it runs once, untimed.
func (w *paperServer) references() error {
	for v := range w.vs {
		if err := w.vs[v].reference(); err != nil {
			return fmt.Errorf("library run of order %d: %w", v, err)
		}
	}
	return nil
}

func (so *serverOrder) reference() error {
	c := so.c
	j, err := crowdjoin.NewJoin(
		crowdjoin.WithTexts(c.texts),
		crowdjoin.WithMatcher(crowdjoin.Matcher{Threshold: threshold}),
		crowdjoin.WithStrategy(crowdjoin.PlatformStrategy),
		crowdjoin.WithConcurrency(serverConcurrency),
		crowdjoin.WithTriage(serverAccept, serverReject),
		crowdjoin.WithPlatform(crowdjoin.NewSimulatedCrowd(crowdjoin.OracleFunc(func(p crowdjoin.Pair) crowdjoin.Label {
			if c.matches(p.A, p.B) {
				return crowdjoin.Matching
			}
			return crowdjoin.NonMatching
		}), crowdjoin.SelectFIFO, nil)),
		crowdjoin.WithInstantDecisions(true),
		crowdjoin.WithIncrementalPlatform(true, true),
	)
	if err != nil {
		return err
	}
	if so.want, err = j.Run(context.Background()); err != nil {
		return err
	}
	so.wantCl, err = so.want.Clusters()
	return err
}

func (w *paperServer) wrapOracle(jobID string, o server.Oracle) server.Oracle {
	if !w.tracing.Load() {
		return o
	}
	tr := w.tr
	return crowdjoin.OracleFunc(func(p crowdjoin.Pair) crowdjoin.Label {
		start := tr.now()
		l := o.Label(p)
		end := tr.now()
		w.mu.Lock()
		w.oracle[jobID] = append(w.oracle[jobID], [2]int64{start, end})
		w.mu.Unlock()
		return l
	})
}

// claimOracle hands the crowd-call spans of job id to the op that ran it,
// under that op's server.run span; an untraced op drops them.
func (w *paperServer) claimOracle(id string, tr *opTrace, runID int32) {
	w.mu.Lock()
	spans := w.oracle[id]
	delete(w.oracle, id)
	w.mu.Unlock()
	if tr == nil {
		return
	}
	for _, s := range spans {
		tr.t.add(tr.newID(), runID, tr.op, "server.oracle", s[0], s[1])
	}
}

// startTracing routes the crowd calls of jobs submitted from now on to tr.
func (w *paperServer) startTracing(tr *tracer) {
	w.tr = tr
	w.tracing.Store(true)
}

func (w *paperServer) op(_, v int, tr *opTrace) (opResult, error) {
	w.jobs.Add(1)
	return w.job(v, tr)
}

// job submits one job of record order v, waits for it and checks its
// result.
func (w *paperServer) job(v int, tr *opTrace) (opResult, error) {
	so := &w.vs[v]
	var (
		st  server.JobStatus
		err error
	)
	do := func(name string, fn func()) {
		if tr == nil {
			fn()
		} else {
			tr.timed(name, tr.root, fn)
		}
	}
	do("server.submit", func() { st, err = status(w.call("POST", "/jobs", so.spec, http.StatusCreated)) })
	if err != nil {
		return opResult{}, err
	}
	id := st.ID
	runID := int32(0)
	start := int64(0)
	if tr != nil {
		runID, start = tr.newID(), tr.t.now()
	}
	poll := func() { st, err = status(w.call("GET", "/jobs/"+id, nil, http.StatusOK)) }
	for st.State == server.StateRunning {
		time.Sleep(pollInterval)
		if tr == nil {
			poll()
		} else {
			tr.timed("server.poll", runID, poll)
		}
		if err != nil {
			return opResult{}, err
		}
	}
	if tr != nil {
		tr.record(runID, tr.root, "server.run", start)
	}
	w.claimOracle(id, tr, runID)
	if st.State != server.StateDone {
		return opResult{}, fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
	}
	var (
		got  server.ResultPayload
		body []byte
	)
	do("server.result", func() {
		if body, err = w.call("GET", "/jobs/"+id+"/result", nil, http.StatusOK); err == nil {
			err = json.Unmarshal(body, &got)
		}
	})
	if err != nil {
		return opResult{}, err
	}
	if err := so.check(&got, st.Rounds); err != nil {
		return opResult{}, fmt.Errorf("job %s: %w", id, err)
	}
	return opResult{
		outcome: outcome{
			Questions: got.Crowdsourced - got.Replayed,
			Rounds:    st.Rounds,
			F1:        metrics.EvaluateClusters(got.Clusters, so.c.ents, so.c.trueMatches).F1,
			Clusters:  len(got.Clusters),
			Pairs:     got.NumPairs,
		},
		records:        len(so.c.texts),
		deduced:        got.Deduced,
		conflicts:      got.Conflicts,
		replayed:       got.Replayed,
		triageAccepted: got.TriageAccepted,
		triageRejected: got.TriageRejected,
		resultBytes:    len(body),
		jobID:          id,
	}, nil
}

// check compares a job's result and its count of published rounds with
// the direct library run; a job run before the references exist (a
// warm-up) is not compared.
func (so *serverOrder) check(got *server.ResultPayload, rounds int) error {
	want := so.want
	if want == nil {
		return nil
	}
	switch {
	case got.Partial:
		return fmt.Errorf("partial result")
	case got.NumPairs != len(want.Order):
		return fmt.Errorf("candidate pairs: server %d, library %d", got.NumPairs, len(want.Order))
	case got.Crowdsourced != want.NumCrowdsourced || got.Deduced != want.NumDeduced:
		return fmt.Errorf("crowdsourced/deduced: server %d/%d, library %d/%d",
			got.Crowdsourced, got.Deduced, want.NumCrowdsourced, want.NumDeduced)
	case got.TriageAccepted != want.TriageAccepted || got.TriageRejected != want.TriageRejected:
		return fmt.Errorf("triage accepted/rejected: server %d/%d, library %d/%d",
			got.TriageAccepted, got.TriageRejected, want.TriageAccepted, want.TriageRejected)
	case rounds != len(want.PublishSizes):
		return fmt.Errorf("rounds: server %d, library %d", rounds, len(want.PublishSizes))
	case !reflect.DeepEqual(got.Clusters, so.wantCl):
		return fmt.Errorf("clusters differ from the library run")
	}
	return nil
}

// call sends one request and returns the reply's body, which must come
// with status wantCode.
func (w *paperServer) call(method, path string, body []byte, wantCode int) ([]byte, error) {
	req, err := http.NewRequest(method, w.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != wantCode {
		return nil, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, data)
	}
	return data, nil
}

// status decodes a job status reply.
func status(data []byte, err error) (server.JobStatus, error) {
	var st server.JobStatus
	if err == nil {
		err = json.Unmarshal(data, &st)
	}
	return st, err
}

// lastEventID reads a finished job's event stream (the retained history,
// then the end of stream) and returns the last SSE id.
func (w *paperServer) lastEventID(id string) (int64, error) {
	resp, err := w.client.Get(w.ts.URL + "/jobs/" + id + "/events")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	last := int64(-1)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "id: "); ok {
			if last, err = strconv.ParseInt(v, 10, 64); err != nil {
				return 0, err
			}
		}
	}
	return last, sc.Err()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// jobLayers measures, after the traced phase, what only a finished job
// shows: its event count and its footprint in the data directory. It runs
// three more jobs for that, since the phase's jobs may be on a server
// instance already restarted away; every order's spec holds the same
// records, so every job does the same work on the same number of bytes.
func (w *paperServer) jobLayers() (map[string]float64, error) {
	const jobs = 3
	var events, store, journal, questions float64
	for v := 0; v < jobs; v++ {
		r, err := w.job(v, nil)
		if err != nil {
			return nil, err
		}
		last, err := w.lastEventID(r.jobID)
		if err != nil {
			return nil, err
		}
		jdir := filepath.Join(w.dir, "jobs", r.jobID)
		size, err := dirBytes(jdir)
		if err != nil {
			return nil, err
		}
		info, err := os.Stat(filepath.Join(jdir, "journal.log"))
		if err != nil {
			return nil, err
		}
		events += float64(last)
		store += float64(size)
		journal += float64(info.Size())
		questions += float64(r.Questions)
	}
	return map[string]float64{
		"server.events_per_job":             events / jobs,
		"server.store_bytes_per_input_byte": store / jobs / float64(len(w.vs[0].spec)),
		"journal.bytes_per_answer":          journal / questions,
	}, nil
}
