package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json compare mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// direction is +1 when higher is better, -1 when lower is, with the
// metric's regression bound (0 for per-layer metrics).
type direction struct {
	sign  float64
	bound float64
}

func loadSpec(path string) (map[string]direction, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	sign := func(better string) float64 {
		if better == "higher" {
			return 1
		}
		return -1
	}
	out := map[string]direction{}
	for _, m := range s.EndToEnd {
		out[m.Name] = direction{sign(m.Better), m.Bound}
	}
	for _, m := range s.PerLayer {
		out[m.Name] = direction{sign(m.Better), 0}
	}
	return out, nil
}

// readDetails reads detail records from a .jsonl file, or from every
// .jsonl file in a directory.
func readDetails(path string) ([]Detail, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		files, _ = filepath.Glob(filepath.Join(path, "*.jsonl"))
	}
	var out []Detail
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(fh)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			var d Detail
			if err := json.Unmarshal([]byte(line), &d); err != nil {
				fh.Close()
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			out = append(out, d)
		}
		fh.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Verdict is compare mode's judgement of one (workload, metric) pair.
type Verdict struct {
	Workload, Metric string
	Base, New        []float64
	WinFrac          float64
	Verdict          string
}

// judge applies the rule of the choosing-metrics guide, section 8: a
// gain needs at least ten pairs, wins in nine tenths of them (ties count
// for neither side) and a median difference larger than the base's
// interquartile distance. A loss beyond the metric's bound is worse
// unless the base's own spread exceeds the bound, which leaves it
// unresolved; within the bound it is flat.
func judge(base, next []float64, dir direction) (winFrac float64, verdict string) {
	pairs := min(len(base), len(next))
	wins, losses := 0, 0
	for i := 0; i < pairs; i++ {
		switch d := dir.sign * (next[i] - base[i]); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	if pairs == 0 {
		return 0, "unresolved"
	}
	winFrac = float64(wins) / float64(pairs)
	mb, mn := median(base), median(next)
	q1, q3 := quartiles(base)
	iqr := q3 - q1
	gain := dir.sign * (mn - mb)
	spread := iqr / math.Abs(mb)
	switch {
	case pairs >= 10 && winFrac >= 0.9 && gain > iqr:
		return winFrac, "improved"
	case dir.bound == 0:
		if pairs >= 10 && float64(losses)/float64(pairs) >= 0.9 && -gain > iqr {
			return winFrac, "worse"
		}
		return winFrac, "unresolved"
	case -gain/math.Abs(mb) > dir.bound:
		if spread > dir.bound {
			return winFrac, "unresolved"
		}
		return winFrac, "worse"
	case spread > dir.bound && !allBetter(base, next, dir.sign):
		return winFrac, "unresolved"
	}
	return winFrac, "flat"
}

// allBetter reports whether every value of next beats every value of base.
func allBetter(base, next []float64, sign float64) bool {
	for _, b := range base {
		for _, n := range next {
			if sign*(n-b) <= 0 {
				return false
			}
		}
	}
	return true
}

// compareDetails groups two result sets by (workload, metric), refusing
// pairs whose machine fingerprints differ.
func compareDetails(base, next []Detail, dirs map[string]direction) ([]Verdict, []string) {
	type key struct{ w, m string }
	values := func(ds []Detail) (map[key][]float64, map[string]string) {
		out, shapes := map[key][]float64{}, map[string]string{}
		for _, d := range ds {
			shapes[d.Workload] = d.Fingerprint.shape()
			for m, v := range d.Result.Metrics {
				out[key{d.Workload, m}] = append(out[key{d.Workload, m}], v.Value)
			}
		}
		return out, shapes
	}
	bv, bs := values(base)
	nv, ns := values(next)
	var flags []string
	var keys []key
	for k := range bv {
		if _, ok := nv[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].w != keys[j].w {
			return keys[i].w < keys[j].w
		}
		return keys[i].m < keys[j].m
	})
	var out []Verdict
	for _, k := range keys {
		if bs[k.w] != ns[k.w] {
			flags = append(flags, fmt.Sprintf("%s: machine or kernel differs (%s vs %s); not compared", k.w, bs[k.w], ns[k.w]))
			delete(bs, k.w)
			delete(ns, k.w)
			continue
		}
		if _, seen := bs[k.w]; !seen {
			continue
		}
		dir, ok := dirs[k.m]
		if !ok {
			continue
		}
		win, v := judge(bv[k], nv[k], dir)
		out = append(out, Verdict{Workload: k.w, Metric: k.m, Base: bv[k], New: nv[k], WinFrac: win, Verdict: v})
	}
	return out, flags
}

// runCompare prints, per (workload, metric), each side's median and
// quartiles, the pair win fraction and the verdict.
func runCompare(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench compare BASE NEW (each a .jsonl file or a directory of them)")
	}
	dirs, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	base, err := readDetails(args[0])
	if err != nil {
		return err
	}
	next, err := readDetails(args[1])
	if err != nil {
		return err
	}
	verdicts, flags := compareDetails(base, next, dirs)
	for _, f := range flags {
		fmt.Fprintln(w, "FLAGGED", f)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3]\tnew median [q1, q3]\tpairs\twin\tverdict")
	for _, v := range verdicts {
		b1, b3 := quartiles(v.Base)
		n1, n3 := quartiles(v.New)
		fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%d\t%.2f\t%s\n",
			v.Workload, v.Metric, median(v.Base), b1, b3, median(v.New), n1, n3,
			min(len(v.Base), len(v.New)), v.WinFrac, v.Verdict)
	}
	return tw.Flush()
}
