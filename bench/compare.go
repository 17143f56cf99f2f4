package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
	"text/tabwriter"
)

// runRecord is one run in a run set: the line the run printed plus what it
// was asked to do. A run set is a JSON array of these (hennbench -append).
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func readRuns(path string) ([]runRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []runRecord
	if err := json.Unmarshal(data, &runs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return runs, nil
}

// appendRun adds one record to the run set at path, creating it if absent.
func appendRun(path string, rec runRecord) error {
	runs, err := readRuns(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	data, err := json.MarshalIndent(append(runs, rec), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// series is the values one (workload, metric) pair took across a run set.
type series struct {
	median, q1, q3 float64
	n              int
}

// spread is the interquartile distance as a share of the median.
func (s series) spread() float64 { return (s.q3 - s.q1) / s.median }

// summarize groups a run set's untraced runs by workload and metric.
func summarize(runs []runRecord) map[string]map[string]series {
	vals := map[string]map[string][]float64{}
	for _, r := range runs {
		if r.Trace != 0 {
			continue
		}
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			vals[r.Workload][name] = append(vals[r.Workload][name], m.Value)
		}
	}
	out := map[string]map[string]series{}
	for w, byMetric := range vals {
		out[w] = map[string]series{}
		for name, xs := range byMetric {
			out[w][name] = series{median: median(xs), q1: quartile(xs, 1), q3: quartile(xs, 3), n: len(xs)}
		}
	}
	return out
}

// quartile matches Python's statistics.quantiles(xs, n=4) (the exclusive
// method), which is what the driver uses for its spread.
func quartile(xs []float64, k int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0]
	}
	pos := float64(k) * float64(n+1) / 4
	j := int(pos)
	j = min(max(j, 1), n-1)
	frac := pos - float64(j)
	return s[j-1] + frac*(s[j]-s[j-1])
}

// compareFiles prints one row per (workload, end-to-end metric) with both
// medians and quartiles, the ratio b/a, the bound and a verdict: regressed
// when b's median is worse than a's by more than the bound, unresolved when
// either side's own spread is wider than the bound, ok otherwise. It returns
// 1 when any row regressed.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	runsA, errA := readRuns(pathA)
	runsB, errB := readRuns(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(stderr, "hennbench:", err)
		return 2
	}
	return compareRuns(runsA, runsB, stdout)
}

func compareRuns(runsA, runsB []runRecord, stdout io.Writer) int {
	a, b := summarize(runsA), summarize(runsB)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median [q1, q3] (n)\tb median [q1, q3] (n)\tb/a\tbound\tverdict\t")
	code := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			sa, okA := a[w.name][d.name]
			sb, okB := b[w.name][d.name]
			if !okA || !okB {
				fmt.Fprintf(tw, "%s\t%s\t%s\t-\t-\t-\t%g\tmissing\t\n", w.name, d.name, d.unit, d.bound)
				continue
			}
			ratio := sb.median / sa.median
			worse := ratio - 1
			if d.better == "higher" {
				worse = 1 - ratio
			}
			verdict := "ok"
			switch {
			case sa.spread() > d.bound || sb.spread() > d.bound:
				verdict = "unresolved"
			case worse > d.bound:
				verdict = "regressed"
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g, %.5g] (%d)\t%.5g [%.5g, %.5g] (%d)\t%.4f\t%g\t%s\t\n",
				w.name, d.name, d.unit, sa.median, sa.q1, sa.q3, sa.n, sb.median, sb.q1, sb.q3, sb.n, ratio, d.bound, verdict)
		}
	}
	_ = tw.Flush()
	return code
}
