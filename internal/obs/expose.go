package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus writes every metric in the registry in the Prometheus
// text exposition format (version 0.0.4): HELP/TYPE headers, one line per
// series, histograms expanded into cumulative _bucket/_sum/_count lines.
// Families and series are emitted in sorted order so output is stable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.sortedSeries() {
			values := splitLabelKey(s.key, len(f.labels))
			switch m := s.m.(type) {
			case *Counter:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, labelString(f.labels, values, ""), m.Value())
			case *Gauge:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, labelString(f.labels, values, ""), formatFloat(m.Value()))
			case *Histogram:
				for _, b := range m.Buckets() {
					le := "+Inf"
					if !math.IsInf(b.UpperBound, 1) {
						le = formatFloat(b.UpperBound)
					}
					fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, labelString(f.labels, values, `le="`+le+`"`), b.CumulativeCount)
				}
				fmt.Fprintf(bw, "%s_sum%s %s\n", f.name, labelString(f.labels, values, ""), formatFloat(m.Sum()))
				fmt.Fprintf(bw, "%s_count%s %d\n", f.name, labelString(f.labels, values, ""), m.Count())
			}
		}
	}
	return bw.Flush()
}

// splitLabelKey recovers label values from a series key. n == 0 yields nil.
func splitLabelKey(key string, n int) []string {
	if n == 0 {
		return nil
	}
	return strings.SplitN(key, "\xff", n)
}

// labelString renders {k="v",...} with an optional extra pre-escaped pair
// (used for the histogram le label). Empty when there is nothing to render.
func labelString(names, values []string, extra string) string {
	if len(names) == 0 && extra == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, name := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extra != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
