package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json a comparison needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them; xs needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		j := min(max(i*(len(s)+1)/4, 1), len(s)-1)
		delta := i*(len(s)+1) - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, math.Abs(median(xs)))
}

// untraced collects a metric's values, and the failed shares, over the
// untraced runs of one workload.
func untraced(set *resultSet, workload, metric string) (vals, failedShares []float64) {
	for _, r := range set.Runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		failedShares = append(failedShares, r.FailedShare)
		if m, ok := r.EndToEnd[metric]; ok && m.Value != nil {
			vals = append(vals, *m.Value)
		}
	}
	return vals, failedShares
}

// verdict judges set B against set A on one metric: a regression when B's
// median is worse by more than the bound; unresolved when the run-to-run
// spread is wider than the bound, unless every run of B beats every run of A.
func verdict(a, b []float64, lowerIsBetter bool, bound float64) string {
	sign := 1.0
	if !lowerIsBetter {
		sign = -1
	}
	medA, medB := median(a), median(b)
	worse := sign * (medB - medA) / math.Abs(medA)
	if worse > bound {
		return "worse"
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	q1, q3 := 0.0, 0.0
	if len(a) >= 2 {
		q1, q3 = quartiles(a)
	}
	switch {
	case allBetter && math.Abs(medB-medA) > q3-q1:
		return "better"
	case math.Max(spread(a), spread(b)) > bound:
		return "unresolved"
	}
	return "same"
}

// compareSets prints one row per workload and end-to-end metric and returns
// exit code 1 if B regresses on any of them or fails a larger share.
func compareSets(w io.Writer, specPath, aPath, bPath string) (int, error) {
	var spec benchSpec
	var a, b resultSet
	if err := errors.Join(readJSON(specPath, &spec), readJSON(aPath, &a), readJSON(bPath, &b)); err != nil {
		return 0, err
	}
	code := 0
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian A\tmedian B\tchange\tspread A\tspread B\tbound\tverdict")
	for _, wl := range spec.Workloads {
		var sharesA, sharesB []float64
		for _, m := range spec.EndToEnd {
			va, fa := untraced(&a, wl.Name, m.Name)
			vb, fb := untraced(&b, wl.Name, m.Name)
			sharesA, sharesB = fa, fb
			if len(va) == 0 || len(vb) == 0 {
				return 0, fmt.Errorf("%s %s: %d runs in %s, %d in %s", wl.Name, m.Name, len(va), aPath, len(vb), bPath)
			}
			v := verdict(va, vb, m.Better == "lower", m.Bound)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n", wl.Name, m.Name, m.Unit,
				median(va), median(vb), 100*(median(vb)-median(va))/median(va), 100*spread(va), 100*spread(vb), 100*m.Bound, v)
		}
		fa, fb := median(sharesA), median(sharesB)
		v := "same"
		if fb > fa {
			v, code = "worse", 1
		}
		fmt.Fprintf(tw, "%s\tfailed_share\tshare\t%.4g\t%.4g\t\t\t\t\t%s\n", wl.Name, fa, fb, v)
	}
	return code, tw.Flush()
}
