// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the crowdjoin library (or the crowdjoind server
// over loopback HTTP), checks every op's output, and prints one JSON line
// of metrics:
//
//	perfbench --workload paper-batch --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
// --trace 1 it runs an untraced phase and then a traced phase and reports
// the per-layer metrics, prints a stage table to stderr, and writes the
// spans under --out. run.sh builds and runs it from the repository root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// setupReps is how many times a run sets the workload up; setup_s is
	// the median, because one set-up is too short to time steadily.
	setupReps = 9
	// warmOps is how many untimed ops each client runs after each set-up.
	warmOps = 2
	// maxLogged caps the op failures printed to stderr.
	maxLogged = 5
)

type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	smoke   bool
	out     string
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"join_p50_ms", "ms"},
	{"records_per_s", "1/s"},
	{"cpu_ms_per_join", "ms"},
	{"alloc_mb_per_join", "MB"},
	{"crowd_questions", "count"},
	{"crowd_rounds", "count"},
	{"f1", "ratio"},
}

// perLayer are the metrics a --trace 1 run reports. Times are means per op
// of the traced phase; a layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"bench.join_p90_ms", "ms"},
	{"bench.samples", "count"},
	{"bench.gomaxprocs", "count"},
	{"bench.clients", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.stage_sum_ratio", "ratio"},
	{"trace.unspanned_ms", "ms"},
	{"candgen.scorer_ms", "ms"},
	{"candgen.probe_ms", "ms"},
	{"candgen.pairs", "count"},
	{"candgen.append_ms", "ms"},
	{"candgen.append_pairs", "count"},
	{"core.order_ms", "ms"},
	{"core.label_ms", "ms"},
	{"core.label_self_ms", "ms"},
	{"core.deduced", "count"},
	{"core.deduced_share", "ratio"},
	{"core.conflicts", "count"},
	{"crowd.busy_ms", "ms"},
	{"crowd.calls", "count"},
	{"crowd.hits", "count"},
	{"crowd.hours", "h"},
	{"journal.write_ms", "ms"},
	{"journal.writes", "count"},
	{"journal.bytes_per_answer", "B"},
	{"stream.run_ms", "ms"},
	{"stream.replayed", "count"},
	{"triage.accepted", "count"},
	{"triage.rejected", "count"},
	{"unionfind.clusters_ms", "ms"},
	{"server.submit_ms", "ms"},
	{"server.run_ms", "ms"},
	{"server.result_ms", "ms"},
	{"server.result_bytes", "B"},
	{"server.oracle_calls", "count"},
	{"server.oracle_ms", "ms"},
	{"server.poll_ms", "ms"},
	{"server.polls", "count"},
	{"server.restarts", "count"},
	{"server.restart_ms", "ms"},
	{"server.events_per_job", "count"},
	{"server.store_bytes_per_input_byte", "ratio"},
	{"runtime.gc_cycles_per_join", "count"},
	{"runtime.gc_pause_ms_per_join", "ms"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-batch, paper-amt, product-stream or paper-server")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	smoke := fs.Bool("smoke", false, "use small corpora (for the benchmark's own tests)")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for work files and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traceFlag)
		return 2
	}
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traceFlag == 1,
		smoke:   *smoke,
		out:     *out,
	}
	rep, err := bench(w, cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runner runs ops of one workload and checks each against the first.
type runner struct {
	w    workload
	inst instance
	log  io.Writer

	// next picks the record order of the next op, so that every phase
	// cycles through the orders evenly.
	next atomic.Int64

	mu        sync.Mutex
	refs      [orders]*outcome // guarded by mu; the first outcome of each order
	attempted int              // guarded by mu
	failed    int              // guarded by mu
	resetErr  error            // guarded by mu; the first failed reset

	// pause is held shared by every op and exclusively by an instance
	// reset, so a reset runs with no op in flight.
	pause  sync.RWMutex
	resets resetStats // written under pause's write lock
}

// resetter is an instance that must be reset now and then between ops:
// the server, whose memory grows with every finished job. The runner
// resets it with no op in flight and keeps the reset's wall time, CPU and
// allocations out of the measured phase.
type resetter interface {
	due() bool
	reset() error
}

// resetStats is what the resets of a run cost, in total.
type resetStats struct {
	n     int
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
	gcs   uint32
	pause uint64 // ns of GC pause
}

// reset resets rs if it is still due once no op is in flight (the other
// client may have reset it first).
func (r *runner) reset(rs resetter) {
	r.pause.Lock()
	defer r.pause.Unlock()
	if !rs.due() {
		return
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, t0 := cpuTime(), time.Now()
	err := rs.reset()
	r.resets.wall += time.Since(t0)
	r.resets.cpu += cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	r.resets.alloc += m1.TotalAlloc - m0.TotalAlloc
	r.resets.gcs += m1.NumGC - m0.NumGC
	r.resets.pause += m1.PauseTotalNs - m0.PauseTotalNs
	r.resets.n++
	if err != nil {
		r.mu.Lock()
		if r.resetErr == nil {
			r.resetErr = fmt.Errorf("reset: %w", err)
		}
		r.mu.Unlock()
	}
}

func (r *runner) broken() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.resetErr
}

// check counts one op on record order v and reports whether it succeeded:
// no error, and the same outcome as the run's first op on that order.
func (r *runner) check(v int, res opResult, err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err == nil && r.refs[v] == nil {
		ref := res.outcome
		r.refs[v] = &ref
	}
	if err == nil && res.outcome != *r.refs[v] {
		err = fmt.Errorf("order %d: outcome %+v differs from the first op's %+v", v, res.outcome, *r.refs[v])
	}
	if err != nil {
		r.failed++
		if r.failed <= maxLogged {
			fmt.Fprintf(r.log, "perfbench: %s: op failed: %v\n", r.w.name, err)
		}
		return false
	}
	return true
}

// phaseStats is what one measured phase observed.
type phaseStats struct {
	lat      []float64 // ms per successful untraced op
	results  []opResult
	tlat     []float64 // the same for traced ops
	tresults []opResult
	elapsed  time.Duration
	cpu      time.Duration
	alloc    uint64
	gcs      uint32
	pause    uint64 // ns
	records  int
	resets   resetStats // taken out of elapsed, cpu, alloc, gcs and pause
}

func (p *phaseStats) ops() float64 { return float64(len(p.lat)) }

// phase runs closed-loop clients until d has passed and every record order
// has had an op (or, with n > 0, for n ops per client). With tr set, ops
// alternate between untraced and traced, so both kinds run under the same
// machine conditions; the alternation flips parity each cycle of the
// record orders, so every order runs both ways.
func (r *runner) phase(d time.Duration, n int, tr *tracer) phaseStats {
	type clientStats struct {
		lat, tlat         []float64
		results, tresults []opResult
	}
	minOps := int64(orders)
	if tr != nil {
		minOps *= 2
	}
	per := make([]clientStats, r.w.clients)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	first := r.next.Load()
	resets0 := r.resets
	rs, _ := r.inst.(resetter)
	more := func(i int) bool {
		if r.broken() != nil {
			return false
		}
		if n > 0 {
			return i < n
		}
		return time.Now().Before(deadline) || r.next.Load()-first < minOps
	}
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; more(i); i++ {
				k := r.next.Add(1) - 1
				v := int(k % orders)
				var (
					ot     *opTrace
					tstart int64
				)
				if tr != nil && (k+k/orders)%2 == 1 {
					ot = tr.beginOp()
					tstart = tr.now()
				}
				r.pause.RLock()
				t0 := time.Now()
				res, err := r.inst.op(c, v, ot)
				lat := time.Since(t0)
				if ot != nil {
					ot.endOp(tstart)
				}
				r.pause.RUnlock()
				if rs != nil && rs.due() {
					r.reset(rs)
				}
				switch {
				case !r.check(v, res, err):
				case ot != nil:
					per[c].tlat = append(per[c].tlat, float64(lat)/1e6)
					per[c].tresults = append(per[c].tresults, res)
				default:
					per[c].lat = append(per[c].lat, float64(lat)/1e6)
					per[c].results = append(per[c].results, res)
				}
			}
		}()
	}
	wg.Wait()
	ps := phaseStats{elapsed: time.Since(start), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&m1)
	ps.alloc = m1.TotalAlloc - m0.TotalAlloc
	ps.gcs = m1.NumGC - m0.NumGC
	ps.pause = m1.PauseTotalNs - m0.PauseTotalNs
	ps.resets = resetStats{
		n:     r.resets.n - resets0.n,
		wall:  r.resets.wall - resets0.wall,
		cpu:   r.resets.cpu - resets0.cpu,
		alloc: r.resets.alloc - resets0.alloc,
		gcs:   r.resets.gcs - resets0.gcs,
		pause: r.resets.pause - resets0.pause,
	}
	ps.elapsed -= ps.resets.wall
	ps.cpu -= ps.resets.cpu
	ps.alloc -= ps.resets.alloc
	ps.gcs -= ps.resets.gcs
	ps.pause -= ps.resets.pause
	for _, c := range per {
		ps.lat = append(ps.lat, c.lat...)
		ps.results = append(ps.results, c.results...)
		ps.tlat = append(ps.tlat, c.tlat...)
		ps.tresults = append(ps.tresults, c.tresults...)
		for _, res := range c.results {
			ps.records += res.records
		}
	}
	return ps
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// percentile returns the q-quantile of xs by linear interpolation between
// closest ranks (q = 0.5 is the median).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// bench sets the workload up setupReps times, then runs the measured phase
// on the last set-up, alternating untraced and traced ops with cfg.trace.
func bench(w workload, cfg config, log io.Writer) (*report, error) {
	// Threads: at most one per CPU, so a gain bought with more cores than
	// the machine has cannot show.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	work := filepath.Join(cfg.out, fmt.Sprintf("work-%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(work)
	r := &runner{w: w, log: log}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		dir := filepath.Join(work, fmt.Sprint(i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		// Every set-up starts from a collected heap, so none is charged
		// for collecting what the set-up before it left behind.
		runtime.GC()
		t0 := time.Now()
		inst, err := w.setup(cfg.seed, cfg.smoke, dir)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		r.inst = inst
		warm := r.phase(0, warmOps, nil)
		setups = append(setups, time.Since(t0).Seconds())
		if err := r.broken(); err != nil {
			inst.close()
			return nil, err
		}
		if len(warm.lat) == 0 {
			inst.close()
			return nil, errors.New("every warm-up op failed")
		}
		if i < setupReps-1 {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
	}
	defer r.inst.close()
	if ref, ok := r.inst.(interface{ references() error }); ok {
		if err := ref.references(); err != nil {
			return nil, err
		}
		// The warm-up ops ran before the references existed, so none was
		// compared with them. Let the measured phase's first op on each
		// order, which is compared, set the order's outcome instead.
		r.mu.Lock()
		r.refs = [orders]*outcome{}
		r.mu.Unlock()
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		if s, ok := r.inst.(interface{ startTracing(*tracer) }); ok {
			s.startTracing(tr)
		}
	}
	plain := r.phase(cfg.seconds, 0, tr)
	if err := r.broken(); err != nil {
		return nil, err
	}
	if len(plain.lat) == 0 {
		return nil, errors.New("no op succeeded in the measured phase")
	}
	p50 := percentile(plain.lat, 0.5)
	fmt.Fprintf(log, "%s: seed %d, GOMAXPROCS %d, %d clients, %d ops in %.2fs, p50 %.3f ms, p90 %.3f ms, setup %.3fs\n",
		w.name, cfg.seed, runtime.GOMAXPROCS(0), w.clients, len(plain.lat), plain.elapsed.Seconds(),
		p50, percentile(plain.lat, 0.9), percentile(setups, 0.5))

	var values map[string]float64
	defs := endToEnd
	if !cfg.trace {
		ref := r.meanOutcome()
		values = map[string]float64{
			"setup_s":           percentile(setups, 0.5),
			"join_p50_ms":       p50,
			"records_per_s":     float64(plain.records) / plain.elapsed.Seconds(),
			"cpu_ms_per_join":   float64(plain.cpu) / 1e6 / plain.ops(),
			"alloc_mb_per_join": float64(plain.alloc) / 1e6 / plain.ops(),
			"crowd_questions":   ref.Questions,
			"crowd_rounds":      ref.Rounds,
			"f1":                ref.F1,
		}
	} else {
		var err error
		if values, err = traced(r, cfg, tr, plain, log); err != nil {
			return nil, err
		}
		defs = perLayer
	}
	rep := &report{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	rep.Correct = r.failed == 0
	for _, m := range defs {
		rep.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	return rep, nil
}

// meanOutcome averages the outcome over the record orders.
func (r *runner) meanOutcome() (m struct{ Questions, Rounds, F1 float64 }) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0.0
	for _, o := range r.refs {
		if o != nil {
			m.Questions += float64(o.Questions)
			m.Rounds += float64(o.Rounds)
			m.F1 += o.F1
			n++
		}
	}
	m.Questions, m.Rounds, m.F1 = m.Questions/n, m.Rounds/n, m.F1/n
	return m
}

// traced derives the per-layer metrics from a phase of alternating
// untraced and traced ops. Runtime counters cover the whole phase.
func traced(r *runner, cfg config, tr *tracer, plain phaseStats, log io.Writer) (map[string]float64, error) {
	if len(plain.tlat) == 0 {
		return nil, errors.New("no traced op succeeded")
	}
	lt := tr.summarize()
	all := plain.ops() + float64(len(plain.tlat))
	p50, tp50 := percentile(plain.lat, 0.5), percentile(plain.tlat, 0.5)
	writeStageTable(log, r.w.name, lt, p50, tp50)
	// The root span's self time is the op's time outside every layer span;
	// with it the self times would always sum to the whole op.
	stageSum := -lt.self[rootSpan]
	for _, v := range lt.self {
		stageSum += v
	}
	// Counts are means over the traced ops, which cycle through the orders.
	mean := func(f func(opResult) float64) float64 {
		var sum float64
		for _, res := range plain.tresults {
			sum += f(res)
		}
		return sum / float64(len(plain.tresults))
	}
	pairs := mean(func(o opResult) float64 { return float64(o.Pairs) })
	deduced := mean(func(o opResult) float64 { return float64(o.deduced) })
	v := map[string]float64{
		"bench.join_p90_ms":            percentile(plain.lat, 0.9),
		"bench.samples":                plain.ops(),
		"bench.gomaxprocs":             float64(runtime.GOMAXPROCS(0)),
		"bench.clients":                float64(r.w.clients),
		"trace.overhead_pct":           100 * (tp50 - p50) / p50,
		"trace.stage_sum_ratio":        stageSum / p50,
		"trace.unspanned_ms":           lt.self[rootSpan],
		"candgen.scorer_ms":            lt.total["candgen.scorer"],
		"candgen.probe_ms":             lt.total["candgen.probe"],
		"candgen.pairs":                pairs,
		"candgen.append_ms":            lt.total["candgen.append"],
		"candgen.append_pairs":         mean(func(o opResult) float64 { return float64(o.appendPairs) }),
		"core.order_ms":                lt.total["core.order"],
		"core.label_ms":                lt.total["core.label"],
		"core.label_self_ms":           lt.self["core.label"],
		"core.deduced":                 deduced,
		"core.deduced_share":           deduced / pairs,
		"core.conflicts":               mean(func(o opResult) float64 { return float64(o.conflicts) }),
		"crowd.busy_ms":                prefixed(lt.total, "crowd."),
		"crowd.calls":                  prefixed(lt.count, "crowd."),
		"crowd.hits":                   mean(func(o opResult) float64 { return float64(o.hits) }),
		"crowd.hours":                  mean(func(o opResult) float64 { return o.Hours }),
		"journal.write_ms":             lt.total["journal.write"],
		"journal.writes":               lt.count["journal.write"],
		"stream.run_ms":                lt.total["stream.run"],
		"stream.replayed":              mean(func(o opResult) float64 { return float64(o.replayed) }),
		"triage.accepted":              mean(func(o opResult) float64 { return float64(o.triageAccepted) }),
		"triage.rejected":              mean(func(o opResult) float64 { return float64(o.triageRejected) }),
		"unionfind.clusters_ms":        lt.total["unionfind.clusters"],
		"server.submit_ms":             lt.total["server.submit"],
		"server.run_ms":                lt.total["server.run"],
		"server.result_ms":             lt.total["server.result"],
		"server.result_bytes":          mean(func(o opResult) float64 { return float64(o.resultBytes) }),
		"server.oracle_calls":          lt.count["server.oracle"],
		"server.oracle_ms":             lt.total["server.oracle"],
		"server.poll_ms":               lt.total["server.poll"],
		"server.polls":                 lt.count["server.poll"],
		"server.restarts":              float64(plain.resets.n),
		"runtime.gc_cycles_per_join":   float64(plain.gcs) / all,
		"runtime.gc_pause_ms_per_join": float64(plain.pause) / 1e6 / all,
	}
	if plain.resets.n > 0 {
		v["server.restart_ms"] = float64(plain.resets.wall) / 1e6 / float64(plain.resets.n)
	}
	if jb := mean(func(o opResult) float64 { return float64(o.journalBytes) }); jb > 0 {
		v["journal.bytes_per_answer"] = jb / mean(func(o opResult) float64 { return float64(o.Questions) })
	}
	if s, ok := r.inst.(interface {
		jobLayers() (map[string]float64, error)
	}); ok {
		extra, err := s.jobLayers()
		if err != nil {
			return nil, err
		}
		for k, x := range extra {
			v[k] = x
		}
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", r.w.name, cfg.seed))
	if err := tr.writeSpans(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "spans written to %s\n", path)
	return v, nil
}
