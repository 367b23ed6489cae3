package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the compare step reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares two sets of run records (JSON lines written by
// --out) workload by workload, with the bounds declared in the
// BENCHMARK.json at specPath. Each end-to-end metric gets a verdict:
// REGRESSION when NEW's median is worse than BASE's by more than the
// bound; unresolved when either side's spread (IQR over median) is
// wider than the bound, unless every NEW run beats every BASE run;
// ok otherwise. It refuses records from different hosts, or from a
// dirty or unknown tree, unless -force is given. Exit status: 0 all
// ok, 1 a regression, 2 refused or unreadable input, 3 no regression
// but a metric unresolved.
func compareMain(specPath string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	force := fs.Bool("force", false, "compare across hosts or against a dirty tree")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare [-force] BASE.jsonl NEW.jsonl")
		return 2
	}
	var spec benchmarkSpec
	data, err := os.ReadFile(specPath)
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	base, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	next, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	if err := comparable(append(append([]record(nil), base...), next...)); err != nil {
		if !*force {
			fmt.Fprintln(stderr, "compare:", err)
			return 2
		}
		fmt.Fprintln(stderr, "compare: forced past:", err)
	}
	return compareRecords(spec, base, next, stdout)
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no records", path)
	}
	return out, nil
}

// comparable refuses records measured on different hosts or on trees
// whose code is not pinned by a clean commit.
func comparable(recs []record) error {
	host := func(s stamp) string {
		return fmt.Sprintf("%s / nproc %d / GOMAXPROCS %d / %s", s.CPUModel, s.NProc, s.GOMAXPROCS, s.GoVersion)
	}
	for _, r := range recs {
		if h, h0 := host(r.Stamp), host(recs[0].Stamp); h != h0 {
			return fmt.Errorf("different hosts: %q vs %q", h0, h)
		}
		if sha := r.Stamp.GitSHA; sha == "unknown" || strings.HasSuffix(sha, "-dirty") {
			return fmt.Errorf("record of %s at %s is not from a clean commit", r.Stamp.Workload, sha)
		}
	}
	return nil
}

// values lists metric's values across recs.
func values(recs []record, metric string) []float64 {
	var vals []float64
	for _, r := range recs {
		if m, ok := r.EndToEnd[metric]; ok {
			vals = append(vals, m.Value)
		} else if m, ok := r.PerLayer[metric]; ok {
			vals = append(vals, m.Value)
		}
	}
	return vals
}

// verdict judges one end-to-end metric. worse(a, b) reports whether a
// reads worse than b.
func verdict(bv, nv []float64, bound float64, worse func(a, b float64) bool) string {
	sb, okb := spread(bv)
	sn, okn := spread(nv)
	if !okb || !okn || sb > bound || sn > bound {
		// Too noisy to call, unless every new run beats every base run.
		for _, n := range nv {
			for _, b := range bv {
				if !worse(b, n) {
					return "unresolved"
				}
			}
		}
		return "ok"
	}
	if bm, nm := median(bv), median(nv); worse(nm, bm) && math.Abs(nm-bm)/bm > bound {
		return "REGRESSION"
	}
	return "ok"
}

func compareRecords(spec benchmarkSpec, base, next []record, w io.Writer) int {
	byWorkload := func(recs []record) map[string][]record {
		m := map[string][]record{}
		for _, r := range recs {
			m[r.Stamp.Workload] = append(m[r.Stamp.Workload], r)
		}
		return m
	}
	b, n := byWorkload(base), byWorkload(next)
	var names []string
	for name := range b {
		if _, ok := n[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmtSpread := func(vals []float64) string {
		if s, ok := spread(vals); ok {
			return fmt.Sprintf("%.2f", s)
		}
		return "n/a"
	}
	regressed, unresolved := false, false
	for _, name := range names {
		fmt.Fprintf(w, "%s (%d base runs, %d new runs)\n", name, len(b[name]), len(n[name]))
		fmt.Fprintf(w, "  %-24s %14s %14s %9s  %6s %6s  %-6s %s\n", "metric", "base median", "new median", "delta", "spread", "spread", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			bv, nv := values(b[name], m.Name), values(n[name], m.Name)
			if len(bv) == 0 || len(nv) == 0 || median(bv) == 0 {
				continue
			}
			worse := func(x, y float64) bool { return x > y }
			if m.Better == "higher" {
				worse = func(x, y float64) bool { return x < y }
			}
			v := verdict(bv, nv, m.Bound, worse)
			regressed = regressed || v == "REGRESSION"
			unresolved = unresolved || v == "unresolved"
			fmt.Fprintf(w, "  %-24s %14.6g %14.6g %+8.2f%%  %6s %6s  %4.0f%%  %s\n", m.Name, median(bv), median(nv),
				100*(median(nv)-median(bv))/median(bv), fmtSpread(bv), fmtSpread(nv), 100*m.Bound, v)
		}
		// Per-layer rows need traced records on both sides.
		layers := map[string]bool{}
		for _, r := range append(append([]record(nil), b[name]...), n[name]...) {
			for metric := range r.PerLayer {
				layers[metric] = true
			}
		}
		var sorted []string
		for metric := range layers {
			sorted = append(sorted, metric)
		}
		sort.Strings(sorted)
		for _, metric := range sorted {
			bv, nv := values(b[name], metric), values(n[name], metric)
			if len(bv) > 0 && len(nv) > 0 && (median(bv) != 0 || median(nv) != 0) {
				fmt.Fprintf(w, "  %-34s %14.6g %14.6g\n", metric, median(bv), median(nv))
			}
		}
	}
	switch {
	case regressed:
		return 1
	case unresolved:
		return 3
	}
	return 0
}
