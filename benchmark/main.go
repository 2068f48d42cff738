// Command benchmark is the repository's benchmark: for one workload and
// one seed it generates the inputs, builds and drives the real
// bpmf-serve and bpmf-trainer binaries and the public Train API through
// the whole pipeline (train → checkpoint → serve under load → ingest →
// trainer cycle → hot reload), checks every output, and prints the
// metrics BENCHMARK.json names. See README.md.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

//go:embed reference.json
var referenceJSON []byte

// references pins the seed-1 RMSE of every workload's chain.
type references struct {
	GOARCH string             `json:"goarch"`
	RMSE   map[string]float64 `json:"rmse"`
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// buildDir holds everything the benchmark builds or writes.
const buildDir = ".bench_build"

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	out      string
	aa       bool
	stage    string // internal: body of a child process
	data     string // internal: the child's .bcsr file
	dir      string // internal: the replica child's snapshot directory
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 0, "how long one run measures (0 = run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1 = the traced run that yields the per-layer metrics")
	flag.StringVar(&o.out, "out", filepath.Join(buildDir, "out"), "directory for result and trace files")
	flag.BoolVar(&o.aa, "aa", false, "run two full sets of ten seeds and compare every end-to-end metric against its bound")
	flag.StringVar(&o.stage, "stage", "", "internal: body of a measured child process")
	flag.StringVar(&o.data, "data", "", "internal: .bcsr file of the child's stage")
	flag.StringVar(&o.dir, "dir", "", "internal: snapshot directory of the replica child")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.stage == "train" {
		w, err := workloadByName(o.workload)
		if err != nil {
			return err
		}
		return trainChild(w, o.seed, o.data, o.seconds)
	}
	if o.stage == "replica" {
		return replicaChild(o.seed, o.data, o.dir)
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if o.aa || o.workload == "all" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if o.aa {
			return runAA(ctx, self, spec, o)
		}
		return runAll(ctx, self, spec, o)
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	res, err := runOne(w, spec, o, self)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("a correctness check failed")
	}
	return nil
}

// runOne runs one workload once in this process and returns the result
// the contract asks for: the end-to-end metrics of an untraced run, or
// the per-layer metrics of a traced one.
func runOne(w workload, spec *benchSpec, o options, self string) (*result, error) {
	var refs references
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(buildDir, "work"), 0o755); err != nil {
		return nil, err
	}
	workDir, err := os.MkdirTemp(filepath.Join(buildDir, "work"), w.name+"-")
	if err != nil {
		return nil, err
	}
	e := &env{w: w, seed: o.seed, seconds: o.seconds, binDir: filepath.Join(buildDir, "bin"),
		workDir: workDir, self: self, ps: newProcs(), pr: newProber()}
	if o.trace != 0 {
		e.tr = newTracer(w.name, o.seed)
	}
	cleanup := func() {
		e.ps.stopAll()
		os.RemoveAll(workDir)
	}
	defer cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()

	t0 := time.Now()
	metrics, err := e.pipeline(refs)
	signal.Stop(sig)
	if err != nil {
		return nil, err
	}
	for _, msg := range e.wrong {
		fmt.Fprintln(os.Stderr, "benchmark: WRONG:", msg)
	}
	if e.tr != nil {
		if err := e.tr.write(filepath.Join(o.out, "trace-"+w.name+".json")); err != nil {
			return nil, err
		}
	}
	if b, err := json.MarshalIndent(e.detail, "", " "); err == nil {
		if err := os.WriteFile(filepath.Join(o.out, fmt.Sprintf("detail-%s-seed%d.json", w.name, o.seed)), b, 0o644); err != nil {
			return nil, err
		}
	}
	want := spec.EndToEnd
	if o.trace != 0 {
		want = spec.PerLayer
	}
	res := &result{Correct: len(e.wrong) == 0, Attempted: e.attempted, Failed: e.failed}
	if res.Metrics, err = selectMetrics(want, metrics); err != nil {
		return nil, err
	}
	printMetrics(os.Stderr, w.name, o.seed, res)
	fmt.Fprintf(os.Stderr, "  (the run took %.1f s for %g s measured)\n", time.Since(t0).Seconds(), o.seconds)
	return res, nil
}

// selectMetrics picks exactly the metrics BENCHMARK.json names out of
// what the run measured, each with its declared unit.
func selectMetrics(want []metricSpec, measured map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(want))
	for _, m := range want {
		v, ok := measured[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s of BENCHMARK.json was not measured", m.Name)
		}
		out[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	return out, nil
}

// printMetrics lists every metric by name with its unit.
func printMetrics(f *os.File, workload string, seed uint64, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(f, "%s seed=%d correct=%v attempted=%d failed=%d\n", workload, seed, res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		fmt.Fprintf(f, "  %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run the benchmark from the root of the checkout: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
