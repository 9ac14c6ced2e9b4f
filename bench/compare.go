package main

import (
	"fmt"
	"io"
)

// compareFiles prints every end-to-end metric of every workload two
// result files share, b against a, with the relative difference and the
// metric's bound, and marks direction-aware regressions. It returns 0
// when b is no worse than a beyond any bound, 1 when a bound is exceeded,
// 2 when the files cannot be compared.
func compareFiles(w io.Writer, aPath, bPath string) int {
	a, err := readSet(aPath)
	if err != nil {
		return fail(err)
	}
	b, err := readSet(bPath)
	if err != nil {
		return fail(err)
	}
	bByName := make(map[string]*result, len(b.Results))
	for _, r := range b.Results {
		bByName[r.Workload] = r
	}
	regressions, compared := 0, 0
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "diff", "bound", "verdict")
	for _, ra := range a.Results {
		rb, ok := bByName[ra.Workload]
		if !ok {
			continue
		}
		if err := comparable(ra, rb); err != nil {
			fmt.Fprintf(w, "refusing to compare %s: %v\n", ra.Workload, err)
			return 2
		}
		defs := append([]e2eDef{{Name: errorRate, Unit: "share", Better: "lower", Exact: true, Gated: true}}, endToEnd...)
		for _, d := range defs {
			va, hasA := ra.EndToEnd[d.Name]
			vb, hasB := rb.EndToEnd[d.Name]
			if !hasA || !hasB {
				continue
			}
			verdict, bound := judge(d, ra.Workload, va.Value, vb.Value)
			switch {
			case !d.Gated:
				verdict, bound = "("+verdict+", not gated)", "-"
			case verdict == regression:
				regressions++
				fallthrough
			default:
				compared++
			}
			fmt.Fprintf(w, "%-14s %-16s %14.6g %14.6g %+8.2f%% %7s  %s\n", ra.Workload, d.Name, va.Value, vb.Value, relDiff(va.Value, vb.Value)*100, bound, verdict)
		}
	}
	if compared == 0 {
		fmt.Fprintln(w, "no workload with end-to-end metrics in both files (traced runs carry none)")
		return 2
	}
	fmt.Fprintf(w, "%d gated metrics compared, %d beyond their bound\n", compared, regressions)
	if regressions > 0 {
		return 1
	}
	return 0
}

// comparable refuses two runs made under different conditions.
func comparable(a, b *result) error {
	pa, pb := a.Provenance, b.Provenance
	switch {
	case pa.GOMAXPROCS != pb.GOMAXPROCS:
		return fmt.Errorf("GOMAXPROCS %d against %d", pa.GOMAXPROCS, pb.GOMAXPROCS)
	case pa.Seconds != pb.Seconds:
		return fmt.Errorf("-seconds %d against %d", pa.Seconds, pb.Seconds)
	case pa.Traced != pb.Traced:
		return fmt.Errorf("a traced run against an untraced one")
	case a.Params != b.Params:
		return fmt.Errorf("workload params differ: %+v against %+v", a.Params, b.Params)
	}
	return nil
}

const regression = "REGRESSION"

func relDiff(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return 1
	}
	return (b - a) / a
}

// judge says whether b regressed against a. Quality metrics are held to
// an absolute floor, 0 on the deterministic workloads and 0.01 on
// serve_mixed whose reads race its writes; error_rate must stay 0;
// everything else may worsen by its relative bound.
func judge(d e2eDef, workload string, a, b float64) (verdict, bound string) {
	worse := b - a
	if d.Better == "higher" {
		worse = a - b
	}
	var limit float64
	switch {
	case d.Name == errorRate:
		bound = "exact"
		worse, limit = b, 0
	case d.Exact:
		if workload == wlServeMixed {
			limit = 0.01
		}
		bound = fmt.Sprintf("-%.2f", limit)
	default:
		limit = d.Bound * a
		bound = fmt.Sprintf("%.0f%%", d.Bound*100)
	}
	switch {
	case worse > limit:
		return regression, bound
	case worse < -limit && limit > 0:
		return "better", bound
	}
	return "same", bound
}
