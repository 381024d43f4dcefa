package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The layers spans are attributed to, named after the modules. kernel
// covers kernel and power; runtime (allocation and GC) has no spans and
// is read from the Go runtime instead.
var spanLayers = []string{
	"kernel", "vrm", "em", "emchannel", "sdr", "faults",
	"covert", "keylog", "core", "stream", "sweep",
}

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Times are nanoseconds since the tracer
// started; Parent is the enclosing span's ID (-1 at a root) and Op the
// operation the span belongs to (-1 for none).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// valid no-op, so traced and untraced runs share one code path.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 4096)} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name, layer string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Layer: layer, Start: now, End: -1, Parent: parent, Op: op})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name, layer string, parent, op int, fn func()) {
	id := t.begin(name, layer, parent, op)
	defer t.end(id)
	fn()
}

// layerTimes is the traced run's time split.
type layerTimes struct {
	self   map[string]float64 // layer → seconds not covered by child spans
	byName map[string]float64 // span name → inclusive seconds
	count  map[string]int     // span name → spans
	total  float64            // sum of self over all layers
}

// times computes each span's self time — its duration minus the part of
// its interval that its children cover (children on other goroutines
// may overlap, so the union is taken) — and sums it per layer.
func (t *tracer) times() layerTimes {
	lt := layerTimes{self: map[string]float64{}, byName: map[string]float64{}, count: map[string]int{}}
	children := make(map[int][]int)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	for _, s := range t.spans {
		dur := s.End - s.Start
		lt.byName[s.Name] += float64(dur) / 1e9
		lt.count[s.Name]++
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[s.ID] {
			a, b := t.spans[c].Start, t.spans[c].End
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered, reach int64 = 0, s.Start
		for _, v := range ivs {
			if v.a > reach {
				reach = v.a
			}
			if v.b > reach {
				covered += v.b - reach
				reach = v.b
			}
		}
		self := float64(dur-covered) / 1e9
		lt.self[s.Layer] += self
		lt.total += self
	}
	return lt
}

// checkClosed reports spans that never ended.
func (t *tracer) checkClosed() error {
	for _, s := range t.spans {
		if s.End < 0 {
			return fmt.Errorf("span %d (%s) never ended", s.ID, s.Name)
		}
	}
	return nil
}

// addSelfTimes reports every layer's self time and share of the total.
func addSelfTimes(res *result, lt layerTimes) {
	for _, l := range spanLayers {
		res.perLayer[l+".self_s"] = metric{lt.self[l], "s"}
		res.perLayer[l+".self_frac"] = metric{frac(lt.self[l], lt.total), "fraction"}
	}
}

// write stores the spans (one JSON object per line) and the per-layer
// self-time table under dir, once, at the end of the run.
func (t *tracer) write(dir, stem string, lt layerTimes, overhead float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeLines(filepath.Join(dir, stem+"-spans.jsonl"), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return writeLines(filepath.Join(dir, stem+"-selftime.tsv"), func(w io.Writer) error {
		fmt.Fprintf(w, "layer\tself_s\tshare\n")
		for _, l := range spanLayers {
			fmt.Fprintf(w, "%s\t%.6f\t%.4f\n", l, lt.self[l], frac(lt.self[l], lt.total))
		}
		fmt.Fprintf(w, "# spans %d, tracing overhead %.4f (traced wall / untraced wall - 1)\n", len(t.spans), overhead)
		return nil
	})
}

func writeLines(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := fill(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTable renders the self-time split for the run's printed output.
func selfTable(lt layerTimes) []string {
	var out []string
	order := append([]string(nil), spanLayers...)
	sort.SliceStable(order, func(i, j int) bool { return lt.self[order[i]] > lt.self[order[j]] })
	for _, l := range order {
		out = append(out, fmt.Sprintf("self time %-10s %9.4fs %5.1f%%", l, lt.self[l], 100*frac(lt.self[l], lt.total)))
	}
	return out
}
