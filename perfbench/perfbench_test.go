package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the
// benchmark's output must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runSmoke runs one short smoke-sized benchmark and decodes its report,
// which must count at least one op per record order and say it is correct
// exactly when no op failed. The op failures are left to the caller.
func runSmoke(t *testing.T, workload, seed, trace string) report {
	t.Helper()
	var out, errOut bytes.Buffer
	args := []string{"--workload", workload, "--seed", seed, "--seconds", "0.2", "--trace", trace, "--smoke", "--out", t.TempDir()}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\n%s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last stdout line is not the report: %v\n%s", err, out.String())
	}
	if rep.Correct != (rep.Failed == 0) || rep.Attempted < orders {
		t.Fatalf("report %+v\n%s", rep, errOut.String())
	}
	if rep.Failed != 0 {
		t.Logf("%d of %d ops failed\n%s", rep.Failed, rep.Attempted, errOut.String())
	}
	return rep
}

// TestWorkloadsSmoke runs every workload of BENCHMARK.json, untraced and
// traced, on the small corpora, and checks each reports exactly the
// metrics BENCHMARK.json declares, with their units, and that no op fails.
func TestWorkloadsSmoke(t *testing.T) {
	b := loadBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		for trace, defs := range map[string][]struct{ Name, Unit string }{"0": b.EndToEnd, "1": b.PerLayer} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				rep := runSmoke(t, w.Name, "7", trace)
				if rep.Failed != 0 {
					t.Errorf("%d of %d ops failed", rep.Failed, rep.Attempted)
				}
				if len(rep.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, %d declared", len(rep.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := rep.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v; it must never be 0", d.Name, m.Value)
					}
				}
			})
		}
	}
}

// TestServerJobsMatchLibrary: every job of a crowdjoind with two crowd
// workers must return what a direct library run of its spec returns,
// published rounds included, as it does with the one worker of the
// paper-server workload. It fails while the two workers answer a job's
// questions in an order that depends on timing: on the small corpus about
// one job in 500 published one round more than the library run.
func TestServerJobsMatchLibrary(t *testing.T) {
	w, err := newPaperServer(7, true, t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if err := w.references(); err != nil {
		t.Fatal(err)
	}
	const jobs = 32 * orders
	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := c; k < jobs; k += 2 {
				if _, err := w.job(k%orders, nil); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	failed := 0
	for err := range errs {
		if failed++; failed <= 3 {
			t.Log(err)
		}
	}
	if failed != 0 {
		t.Errorf("%d of %d jobs differ from the library run", failed, jobs)
	}
}

// TestSeedFixesCounts: the same seed gives the same inputs, so the crowd
// counts and quality repeat exactly from run to run.
func TestSeedFixesCounts(t *testing.T) {
	a := runSmoke(t, "product-stream", "3", "0")
	b := runSmoke(t, "product-stream", "3", "0")
	for _, k := range []string{"crowd_questions", "crowd_rounds", "f1"} {
		if a.Metrics[k] != b.Metrics[k] {
			t.Errorf("%s: %v then %v", k, a.Metrics[k], b.Metrics[k])
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper-batch", "--trace", "2"},
		{"--workload", "paper-batch", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// TestSelfTime: a span's self time excludes the union of its children, so
// overlapping children (the server's two crowd workers) are not counted
// twice, and children are clipped to the parent.
func TestSelfTime(t *testing.T) {
	for _, tc := range []struct {
		ivs  [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{10, 20}, {30, 40}}, 20},
		{[][2]int64{{10, 30}, {20, 40}}, 30},
		{[][2]int64{{20, 40}, {10, 30}, {12, 15}}, 30},
		{[][2]int64{{-5, 10}, {90, 120}}, 20},
	} {
		if got := covered(0, 100, tc.ivs); got != tc.want {
			t.Errorf("covered(0, 100, %v) = %d, want %d", tc.ivs, got, tc.want)
		}
	}
}

// TestServerRestart: the paper-server workload is due for a restart after
// restartEvery jobs, the restart moves crowdjoind to an empty data
// directory, and jobs keep succeeding across it.
func TestServerRestart(t *testing.T) {
	inst, err := setupPaperServer(1, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := inst.(*paperServer)
	defer w.close()
	for i := 0; i < restartEvery; i++ {
		if w.due() {
			t.Fatalf("due after %d jobs", i)
		}
		if _, err := w.op(0, i%orders, nil); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if !w.due() {
		t.Fatalf("not due after %d jobs", restartEvery)
	}
	if err := w.reset(); err != nil {
		t.Fatal(err)
	}
	if w.gen != 1 || w.due() {
		t.Fatalf("after the reset: generation %d, due %v", w.gen, w.due())
	}
	if _, err := os.Stat(filepath.Join(w.root, "0")); !os.IsNotExist(err) {
		t.Fatalf("first instance's data directory still there (stat: %v)", err)
	}
	if _, err := w.op(0, 0, nil); err != nil {
		t.Fatalf("job after the restart: %v", err)
	}
}
