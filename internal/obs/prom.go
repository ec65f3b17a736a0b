package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text-format (0.0.4) export of a Registry.
//
// Internal metric names follow the `<layer>.<name>` scheme
// ("ilp.solve_time", "core.region_pool.busy"); the exporter maps each
// onto `heteropar_<layer>_<name>` — every non-[a-zA-Z0-9_] byte becomes
// an underscore — so the scrape surface reads
// `heteropar_ilp_solves`, `heteropar_core_region_solve_time_seconds`
// and so on. Histograms are exported in seconds (the Prometheus base
// unit) with a `_seconds` suffix, cumulative `_bucket{le="..."}`
// series, `_sum` and `_count`. Output is sorted by exported family
// name, then label values, so equal registry contents render
// byte-identically.

// promNamePrefix is the exported-metric namespace.
const promNamePrefix = "heteropar_"

// PromName maps an internal metric name onto its exported Prometheus
// family name (without histogram unit suffixes).
func PromName(name string) string {
	var sb strings.Builder
	sb.WriteString(promNamePrefix)
	for i := 0; i < len(name); i++ {
		b := name[i]
		switch {
		case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b == '_':
			sb.WriteByte(b)
		case b >= '0' && b <= '9':
			sb.WriteByte(b)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// promEscape escapes a label value per the text format.
func promEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// promFloat renders a sample value.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promLabels renders {a="x",b="y"} (empty string for no labels).
func promLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `%s="%s"`, PromName(n)[len(promNamePrefix):], promEscape(values[i]))
	}
	sb.WriteByte('}')
	return sb.String()
}

// promHist writes one histogram child as cumulative buckets in
// seconds, plus sum and count. extra holds the child's own labels.
func promHist(w io.Writer, family string, names, values []string, h *Histogram) {
	s := h.Snapshot()
	var cum int64
	base := promLabels(names, values)
	// Merge the le label into the child's label set.
	leLabel := func(le string) string {
		if base == "" {
			return `{le="` + le + `"}`
		}
		return base[:len(base)-1] + `,le="` + le + `"}`
	}
	bounds := HistogramBounds()
	for i, n := range s.Buckets {
		cum += n
		le := "+Inf"
		if i < len(bounds) {
			le = promFloat(bounds[i].Seconds())
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", family, leLabel(le), cum)
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", family, base, promFloat(s.Sum.Seconds()))
	fmt.Fprintf(w, "%s_count%s %d\n", family, base, s.Count)
}

// promFamily is one exported family with all of its samples.
type promFamily struct {
	name string
	typ  string
	emit func(w io.Writer)
}

// WritePrometheus renders every metric in the registry in Prometheus
// text format 0.0.4. Safe to call concurrently with writers; a nil
// registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var fams []promFamily

	r.mu.Lock()
	for _, n := range sortedKeys(r.counters) {
		name, c := PromName(n), r.counters[n]
		fams = append(fams, promFamily{name, "counter", func(w io.Writer) {
			fmt.Fprintf(w, "%s %d\n", name, c.Value())
		}})
	}
	for _, n := range sortedKeys(r.counterVecs) {
		v := r.counterVecs[n]
		name, children := PromName(n), v.children()
		labels := v.LabelNames()
		fams = append(fams, promFamily{name, "counter", func(w io.Writer) {
			for _, ch := range children {
				fmt.Fprintf(w, "%s%s %d\n", name, promLabels(labels, ch.values), ch.metric.Value())
			}
		}})
	}
	for _, n := range sortedKeys(r.gauges) {
		name, g := PromName(n), r.gauges[n]
		fams = append(fams, promFamily{name, "gauge", func(w io.Writer) {
			fmt.Fprintf(w, "%s %s\n", name, promFloat(g.Value()))
		}})
	}
	for _, n := range sortedKeys(r.hists) {
		name, h := histPromName(n), r.hists[n]
		fams = append(fams, promFamily{name, "histogram", func(w io.Writer) {
			promHist(w, name, nil, nil, h)
		}})
	}
	for _, n := range sortedKeys(r.histVecs) {
		v := r.histVecs[n]
		name, children := histPromName(n), v.children()
		labels := v.LabelNames()
		fams = append(fams, promFamily{name, "histogram", func(w io.Writer) {
			for _, ch := range children {
				promHist(w, name, labels, ch.values, ch.metric)
			}
		}})
	}
	r.mu.Unlock()

	sort.SliceStable(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		f.emit(w)
	}
	return nil
}

// histPromName appends the _seconds unit suffix (histograms export
// durations in the Prometheus base unit).
func histPromName(n string) string {
	name := PromName(n)
	if !strings.HasSuffix(name, "_seconds") {
		name += "_seconds"
	}
	return name
}
