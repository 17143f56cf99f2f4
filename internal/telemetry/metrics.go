package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a set of metric families and renders them in Prometheus
// text exposition format. Each Server owns its own Registry (no process
// globals), so tests and multi-server processes never collide on metric
// names. Registration happens once at construction; the per-sample paths
// (Counter.Inc, Histogram.Record) never touch the registry lock.
type Registry struct {
	mu     sync.Mutex
	fams   []*metricFamily          // guarded by mu
	byName map[string]*metricFamily // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*metricFamily{}}
}

type metricFamily struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	labels []string
	fn     func() float64 // non-nil for a function-backed gauge/counter

	mu     sync.RWMutex
	series map[string]*labeledSeries // guarded by mu
	order  []string                  // guarded by mu
}

type labeledSeries struct {
	values []string
	ctr    *Counter
	hist   *Histogram
}

// Counter is a monotonically increasing counter. The zero value is ready;
// methods tolerate a nil receiver so disabled call sites need no check.
type Counter struct {
	n atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.n.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// CounterVec is a family of counters distinguished by label values.
type CounterVec struct{ fam *metricFamily }

// HistogramVec is a family of histograms distinguished by label values.
type HistogramVec struct{ fam *metricFamily }

func (r *Registry) register(name, help, typ string, labels []string, fn func() float64) *metricFamily {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic("telemetry: duplicate metric registration: " + name)
	}
	f := &metricFamily{
		name:   name,
		help:   help,
		typ:    typ,
		labels: labels,
		fn:     fn,
		series: map[string]*labeledSeries{},
	}
	r.fams = append(r.fams, f)
	r.byName[name] = f
	return f
}

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.register(name, help, "counter", labels, nil)}
}

// NewHistogramVec registers a labeled histogram family.
func (r *Registry) NewHistogramVec(name, help string, labels ...string) *HistogramVec {
	return &HistogramVec{fam: r.register(name, help, "histogram", labels, nil)}
}

// NewHistogram registers an unlabeled histogram.
func (r *Registry) NewHistogram(name, help string) *Histogram {
	return r.NewHistogramVec(name, help).With()
}

// NewGaugeFunc registers a gauge whose value is sampled at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, "gauge", nil, fn)
}

// NewCounterFunc registers a counter whose value is sampled at scrape time
// (for totals another subsystem already tracks atomically).
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) {
	r.register(name, help, "counter", nil, fn)
}

func (f *metricFamily) with(values []string) *labeledSeries {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: %s wants %d label value(s), got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.RLock()
	s := f.series[key]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.series[key]; s != nil {
		return s
	}
	if len(f.series) >= maxSeriesPerFamily {
		return &labeledSeries{} // nil Counter and Histogram: writes are dropped
	}
	s = &labeledSeries{values: append([]string(nil), values...)}
	switch f.typ {
	case "counter":
		s.ctr = &Counter{}
	case "histogram":
		s.hist = &Histogram{}
	}
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// maxSeriesPerFamily bounds how many label sets one family ever holds, so
// a label fed by an unbounded source (a model version per supersede, a
// client-chosen value) costs dropped samples, never unbounded memory or
// scrape size.
const maxSeriesPerFamily = 256

// With returns the counter for the given label values, creating it on
// first use. The value count must match the registered label names. Once
// the family holds maxSeriesPerFamily series, With for a new label set
// returns nil — the no-op Counter — and the existing series carry on.
func (v *CounterVec) With(values ...string) *Counter { return v.fam.with(values).ctr }

// With returns the histogram for the given label values, creating it on
// first use; past maxSeriesPerFamily series, nil (the no-op Histogram).
func (v *HistogramVec) With(values ...string) *Histogram { return v.fam.with(values).hist }

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatLabels renders {k1="v1",k2="v2"}; extra appends one more pair
// (the histogram le label). Returns "" for an unlabeled series.
func formatLabels(names, values []string, extraK, extraV string) string {
	if len(names) == 0 && extraK == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraK != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraK)
		b.WriteString(`="`)
		b.WriteString(extraV)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteText renders every family in Prometheus text exposition format,
// families sorted by name and series by label values, so output is
// deterministic for golden tests and stable for scrape diffing.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*metricFamily(nil), r.fams...)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		if f.fn != nil {
			fmt.Fprintf(&b, "%s %s\n", f.name, formatFloat(f.fn()))
			continue
		}
		f.mu.RLock()
		keys := append([]string(nil), f.order...)
		series := make([]*labeledSeries, len(keys))
		for i, k := range keys {
			series[i] = f.series[k]
		}
		f.mu.RUnlock()
		sort.Slice(series, func(i, j int) bool {
			return strings.Join(series[i].values, "\x00") < strings.Join(series[j].values, "\x00")
		})
		for _, s := range series {
			switch f.typ {
			case "counter":
				fmt.Fprintf(&b, "%s%s %d\n", f.name, formatLabels(f.labels, s.values, "", ""), s.ctr.Value())
			case "histogram":
				snap := s.hist.Snapshot()
				var cum uint64
				for i := 0; i <= numBuckets; i++ {
					cum += snap.Counts[i]
					le := "+Inf"
					if i < numBuckets {
						le = formatFloat(bucketBound(i))
					}
					// Collapse empty interior buckets: only emit a bucket
					// when it holds samples or is the +Inf terminator, so a
					// 37-bucket histogram with 3 occupied buckets costs 4
					// lines, not 37. Cumulative counts stay correct.
					if snap.Counts[i] == 0 && i < numBuckets {
						continue
					}
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, formatLabels(f.labels, s.values, "le", le), cum)
				}
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, formatLabels(f.labels, s.values, "", ""), formatFloat(snap.Sum.Seconds()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, formatLabels(f.labels, s.values, "", ""), snap.Count)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler returns an http.Handler serving the registry in text exposition
// format — mount it at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}
