// Package exper regenerates every table in the paper's evaluation: it runs
// the simulated testbed under the right configuration for each experiment
// and renders the results side by side with the paper's published values.
package exper

import (
	"fmt"
	"strings"
)

// Table is one rendered experiment result.
type Table struct {
	ID      string // "I" … "XII", "improvements", "cpu"
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Render formats the table as aligned text.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table %s: %s\n", t.ID, t.Title)

	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Options controls experiment scale. Quality 1.0 runs the paper's full call
// counts; smaller values scale them down proportionally (minimum 100 calls)
// for quick runs and tests.
type Options struct {
	Quality float64
	Seed    uint64
}

// DefaultOptions runs at full paper scale.
func DefaultOptions() Options { return Options{Quality: 1.0, Seed: 1} }

// calls scales a paper call count by quality.
func (o Options) calls(paper int) int {
	q := o.Quality
	if q <= 0 {
		q = 1
	}
	n := int(float64(paper) * q)
	if n < 100 {
		n = 100
	}
	return n
}

// Experiment pairs an identifier with the function that regenerates it.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) Table
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"I", "Time for 10000 RPCs", TableI},
		{"II", "4-byte integer arguments, passed by value", TableII},
		{"III", "Fixed length array, passed by VAR OUT", TableIII},
		{"IV", "Variable length array, passed by VAR OUT", TableIV},
		{"V", "Text.T argument", TableV},
		{"VI", "Latency of steps in the send+receive operation", TableVI},
		{"VII", "Latency of stubs and RPC runtime", TableVII},
		{"VIII", "Calculation of latency for RPC to Null() and MaxResult(b)", TableVIII},
		{"IX", "Execution time for main path of the Ethernet interrupt routine", TableIX},
		{"X", "Calls to Null() with varying numbers of processors", TableX},
		{"XI", "Throughput of MaxResult(b) with varying numbers of processors", TableXI},
		{"XII", "Performance of remote RPC in other systems", TableXII},
		{"util", "Resource utilization at MaxResult saturation", TableUtil},
		{"improvements", "§4.2 estimated improvements, re-simulated", Improvements},
		{"streaming", "§5 streaming hypothesis, implemented", Streaming},
		{"ablations", "§3.2 structural optimizations, individually removed", Ablations},
		{"tail", "Null RPC latency under frame loss (real stack)", TableTail},
		{"overload", "Goodput under overload by admission policy (real stack)", TableOverload},
		{"hedge", "Hedged vs unhedged replica-set tail latency (real stack)", TableHedge},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f0(v float64) string  { return fmt.Sprintf("%.0f", v) }
func pct(v float64) string { return fmt.Sprintf("%.0f%%", v) }
