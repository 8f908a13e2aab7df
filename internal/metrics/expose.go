package metrics

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// Snapshot is the JSON surface of a registry: every family with its
// samples, families sorted by name and samples by label values, so two
// snapshots of the same state are byte-identical once encoded.
type Snapshot []FamilySnapshot

// FamilySnapshot is one metric family in a snapshot.
type FamilySnapshot struct {
	Name    string   `json:"name"`
	Help    string   `json:"help,omitempty"`
	Type    string   `json:"type"`
	Samples []Sample `json:"samples,omitempty"`
}

// Sample is one instrument of a family. Counters and gauges fill Value;
// histograms fill Count, Sum, and Buckets.
type Sample struct {
	Labels  map[string]string `json:"labels,omitempty"`
	Value   float64           `json:"value"`
	Count   uint64            `json:"count,omitempty"`
	Sum     float64           `json:"sum,omitempty"`
	Buckets []BucketCount     `json:"buckets,omitempty"`
}

// Snapshot gathers the registry into its JSON form. A nil registry
// yields a nil snapshot.
func (r *Registry) Snapshot() Snapshot {
	fams := r.gather()
	if fams == nil {
		return nil
	}
	out := make(Snapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Type: f.kind.String()}
		f.mu.Lock()
		fn := f.fn
		children := f.sortedChildren()
		f.mu.Unlock()
		if f.kind.isFunc() {
			var v float64
			if fn != nil {
				v = fn()
			}
			fs.Samples = []Sample{{Value: v}}
			out = append(out, fs)
			continue
		}
		for _, c := range children {
			s := Sample{}
			if len(f.labels) > 0 {
				s.Labels = make(map[string]string, len(f.labels))
				for i, l := range f.labels {
					s.Labels[l] = c.values[i]
				}
			}
			switch f.kind {
			case kindCounter:
				s.Value = c.ctr.Value()
			case kindGauge:
				s.Value = c.gag.Value()
			case kindHistogram:
				hs := c.hst.Snapshot()
				s.Count, s.Sum, s.Buckets = hs.Count, hs.Sum, hs.Buckets
			}
			fs.Samples = append(fs.Samples, s)
		}
		out = append(out, fs)
	}
	return out
}

// WritePrometheus writes the registry in Prometheus text exposition
// format (version 0.0.4): families sorted by name, each with HELP and
// TYPE lines (emitted even for families that have no samples yet, so a
// scraper sees the full schema from the first request), samples sorted
// by label values. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.gather() {
		if err := f.writePrometheus(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) writePrometheus(w io.Writer) error {
	var b bytes.Buffer
	if f.help != "" {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)

	f.mu.Lock()
	fn := f.fn
	children := f.sortedChildren()
	f.mu.Unlock()

	if f.kind.isFunc() {
		var v float64
		if fn != nil {
			v = fn()
		}
		fmt.Fprintf(&b, "%s %s\n", f.name, formatFloat(v))
		_, err := w.Write(b.Bytes())
		return err
	}
	for _, c := range children {
		switch f.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s%s %s\n", f.name, labelString(f.labels, c.values, ""), formatFloat(c.ctr.Value()))
		case kindGauge:
			fmt.Fprintf(&b, "%s%s %s\n", f.name, labelString(f.labels, c.values, ""), formatFloat(c.gag.Value()))
		case kindHistogram:
			hs := c.hst.Snapshot()
			for _, bk := range hs.Buckets {
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, labelString(f.labels, c.values, bk.LE), bk.Count)
			}
			fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, labelString(f.labels, c.values, ""), formatFloat(hs.Sum))
			fmt.Fprintf(&b, "%s_count%s %d\n", f.name, labelString(f.labels, c.values, ""), hs.Count)
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}

// labelString renders `{k="v",...}` in declared label order, appending
// the `le` label when non-empty (histogram buckets). Returns "" for an
// unlabeled sample.
func labelString(labels, values []string, le string) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if le != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a sample value: shortest round-trip decimal, with
// the infinities spelled the way the exposition format expects.
func formatFloat(v float64) string {
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

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }
func escapeHelp(s string) string  { return helpEscaper.Replace(s) }

// Handler serves the registry as a Prometheus scrape target
// (`GET /metrics`). A nil registry serves an empty exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var buf bytes.Buffer
		r.WritePrometheus(&buf)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(buf.Bytes())
	})
}
