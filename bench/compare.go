package main

import (
	"fmt"
	"io"
	"math"
)

// side gathers one result file's values per (workload, metric).
type side map[[2]string][]float64

func gather(rs resultSet) side {
	s := side{}
	for _, r := range rs.Runs {
		for name, v := range r.Metrics {
			k := [2]string{r.Workload, name}
			s[k] = append(s[k], v)
		}
	}
	return s
}

// spread is the distance between the quartiles as a share of the
// median: the side's own run-to-run noise.
func spread(xs []float64) float64 {
	if len(xs) < 2 || median(xs) == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// compareFiles applies each end-to-end metric's declared bound to two
// result sets and prints one row per (workload, metric). A row whose
// own spread exceeds the bound is unresolved, not unchanged. Exact
// per-layer metrics must be identical across every run of both files.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	ra, err := readResultSet(pathA)
	if err != nil {
		return false, err
	}
	rb, err := readResultSet(pathB)
	if err != nil {
		return false, err
	}
	a, b := gather(ra), gather(rb)
	fmt.Fprintf(w, "%-16s %-18s %14s %14s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "worse %", "spread %", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			k := [2]string{wl.name, d.Name}
			xa, xb := a[k], b[k]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := (mb - ma) / math.Abs(ma) // > 0 means B is worse
			if d.Better == "higher" {
				worse = -worse
			}
			noise := math.Max(spread(xa), spread(xb))
			verdict := "unchanged"
			switch {
			case noise > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict, regressed = "REGRESSED", true
			case worse < -d.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(w, "%-16s %-18s %14.6g %14.6g %8.2f %8.2f %6.2f  %s (n=%d,%d)\n",
				wl.name, d.Name, ma, mb, worse*100, noise*100, d.Bound, verdict, len(xa), len(xb))
		}
		checked, drift := 0, 0
		for _, d := range perLayer {
			k := [2]string{wl.name, d.Name}
			vals := append(append([]float64(nil), a[k]...), b[k]...)
			if !d.Exact || len(vals) == 0 {
				continue
			}
			checked++
			for _, v := range vals {
				if v != vals[0] {
					drift++
					fmt.Fprintf(w, "%-16s %-18s exact count differs between runs: %v\n", wl.name, d.Name, vals)
					break
				}
			}
		}
		if checked > 0 && drift == 0 {
			fmt.Fprintf(w, "%-16s all %d exact per-layer counts are identical across all runs\n", wl.name, checked)
		}
	}
	return regressed, nil
}
