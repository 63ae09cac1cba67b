// Command perfbench is the repository benchmark. It generates a
// workload's inputs from -seed, builds indexes and starts real bilsh
// server processes from the source tree under test, drives them over
// loopback, checks every answer, and prints the workload's metrics as
// one JSON object on the last line of standard output.
//
//	perfbench -bilsh BIN -work DIR --workload knn-batch --seed 1 --seconds 10 --trace 0
//	perfbench compare base.jsonl new.jsonl
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the same set-up and load with client spans on and times calls
// into each layer's public functions from this package, printing the
// per-layer metrics. workloads.json records why each workload exists,
// its parameters, floors and limits, and which end-to-end metric each
// layer metric should move.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

//go:embed workloads.json
var configJSON []byte

// Config is workloads.json.
type Config struct {
	K               int                          `json:"k"`
	ReferenceSeed   uint64                       `json:"reference_seed"`
	Workloads       map[string]*Workload         `json:"workloads"`
	EndToEnd        []MetricDoc                  `json:"end_to_end"`
	PerLayer        []MetricDoc                  `json:"per_layer"`
	ReferenceHashes map[string]map[string]string `json:"reference_hashes"`
}

// MetricDoc documents one metric: what it means or which call it
// times, and which end-to-end metric it should move on which workload.
type MetricDoc struct {
	Name    string `json:"name"`
	Meaning string `json:"meaning,omitempty"`
	Source  string `json:"source,omitempty"`
	Moves   string `json:"moves,omitempty"`
	MovesOn string `json:"moves_on,omitempty"`
	FlatOn  string `json:"flat_on,omitempty"`
}

// Workload holds one workload's parameters. Fields that do not apply to
// a workload are zero.
type Workload struct {
	Why          string   `json:"why"`
	Dim          int      `json:"dim"`
	N            int      `json:"n"`
	Queries      int      `json:"queries"`
	TruthQueries int      `json:"truth_queries"`
	Clusters     int      `json:"clusters"`
	Intrinsic    int      `json:"intrinsic"`
	Build        []string `json:"build"`
	Connections  int      `json:"connections"`
	RecallFloor  float64  `json:"recall_floor"`

	Batch        int `json:"batch"`
	BatchWorkers int `json:"batch_workers"`

	Shards         int      `json:"shards"`
	ShardBuild     []string `json:"shard_build"`
	RowsBudgetFrac float64  `json:"rows_budget_frac"`
	Spill          int      `json:"spill"`
}

func loadConfig() (*Config, error) {
	var c Config
	dec := json.NewDecoder(bytes.NewReader(configJSON))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return &c, nil
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Detail is the full record of one run, printed before the result line
// and appended to <results>/<workload>.jsonl for compare mode.
type Detail struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Seconds     int                `json:"seconds"`
	Trace       bool               `json:"trace"`
	Result      Result             `json:"result"`
	Fingerprint Fingerprint        `json:"fingerprint"`
	Hashes      map[string]string  `json:"hashes"`
	Latency     map[string]Summary `json:"latency,omitempty"`
	Notes       map[string]any     `json:"notes,omitempty"`
	Errors      []string           `json:"errors,omitempty"`
}

// run is the shared state of one benchmark run.
type run struct {
	cfg     *Config
	name    string
	wl      *Workload
	seed    uint64
	seconds time.Duration
	trace   bool
	bilsh   string
	dir     string // scratch directory of this run, removed at exit
	model   *model // input generator, kept for rows inserted later

	procs  []*proc
	began  time.Time
	detail *Detail
	gate   gate
	ms     map[string]Metric
}

func (r *run) metric(name, unit string, v float64) { r.ms[name] = Metric{Value: v, Unit: unit} }

func (r *run) note(key string, v any) { r.detail.Notes[key] = v }

// progress reports on standard error how far into the run a step ended.
func (r *run) progress(step string) {
	fmt.Fprintf(os.Stderr, "perfbench: %6.1fs %s\n", time.Since(r.began).Seconds(), step)
}

func main() {
	bilsh := flag.String("bilsh", "", "bilsh binary built from the tree under test")
	work := flag.String("work", ".bench_build/work", "scratch directory")
	results := flag.String("results", ".bench_build/results", "directory the detail records are appended to")
	workload := flag.String("workload", "", "workload name (see workloads.json)")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: per-layer traced run; 0: end-to-end run")
	flag.Parse()

	if flag.NArg() > 0 && flag.Arg(0) == "compare" {
		if err := runCompare(flag.Args()[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	cfg, err := loadConfig()
	if err != nil {
		fatal(err)
	}
	wl := cfg.Workloads[*workload]
	switch {
	case wl == nil:
		fatal(fmt.Errorf("unknown workload %q", *workload))
	case *bilsh == "":
		fatal(errors.New("-bilsh is required"))
	case *seconds < 1:
		fatal(fmt.Errorf("--seconds must be >= 1, got %d", *seconds))
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	r := &run{
		cfg: cfg, name: *workload, wl: wl, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		bilsh: *bilsh, dir: dir, ms: map[string]Metric{}, began: time.Now(),
		detail: &Detail{
			Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
			Hashes: map[string]string{}, Latency: map[string]Summary{}, Notes: map[string]any{},
		},
	}
	r.detail.Fingerprint = fingerprint()
	err = r.executeAndStop()
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	res := Result{
		Correct: r.gate.ok(), Attempted: r.gate.attempted, Failed: r.gate.failed, Metrics: r.ms,
	}
	r.detail.Result = res
	r.detail.Errors = r.gate.errs
	line, err := json.Marshal(r.detail)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if err := appendRecord(*results, *workload, line); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing detail record:", err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		for _, e := range r.gate.errs {
			fmt.Fprintln(os.Stderr, "perfbench: correctness gate failed:", e)
		}
		os.Exit(1)
	}
}

// executeAndStop runs the workload and then stops every server it
// started, also when the workload panics (the panic becomes the error).
func (r *run) executeAndStop() (err error) {
	defer r.stopAll()
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	return r.execute()
}

// execute runs the workload and fills r.ms.
func (r *run) execute() error {
	if runtime.GOOS != "linux" {
		return fmt.Errorf("perfbench reads /proc and needs linux, not %s", runtime.GOOS)
	}
	switch r.name {
	case "knn-batch":
		return r.knnBatch()
	case "online-sharded":
		return r.onlineSharded()
	}
	return fmt.Errorf("workload %q is not implemented", r.name)
}

// checkMetrics verifies that the run reported exactly the metrics its
// mode promises, so a code path that forgets one fails loudly.
func (r *run) checkMetrics() error {
	want := r.cfg.EndToEnd
	if r.trace {
		want = r.cfg.PerLayer
	}
	var missing []string
	for _, m := range want {
		if _, ok := r.ms[m.Name]; !ok {
			missing = append(missing, m.Name)
		}
	}
	for name, m := range r.ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	if len(missing) > 0 || len(r.ms) != len(want) {
		var got []string
		for k := range r.ms {
			got = append(got, k)
		}
		sort.Strings(got)
		return fmt.Errorf("metrics mismatch: missing %v, reported %v", missing, got)
	}
	return nil
}

func appendRecord(dir, workload string, line []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, workload+".jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
