package stats

import (
	"fmt"
	"strings"
)

// Point is one (x, y) observation of a reported curve, e.g. offered load
// versus mean latency.
type Point struct {
	X float64
	Y float64
	// Saturated marks points where the router did not reach steady state
	// (latency diverging); plots in the paper simply end their curves at
	// such loads.
	Saturated bool
}

// Series is a named curve, matching one line in one of the paper's
// figures.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64, saturated bool) {
	s.Points = append(s.Points, Point{X: x, Y: y, Saturated: saturated})
}

// Table renders one or more series that share x values as an aligned
// text table, the format every figure-reproduction harness prints.
type Table struct {
	Title   string
	XLabel  string
	YLabel  string
	Series  []*Series
	Notes   []string
	Scalars []Scalar
}

// Scalar is a named headline number attached to a table (e.g. measured
// saturation throughput).
type Scalar struct {
	Name  string
	Value float64
	Unit  string
}

// AddSeries appends a curve to the table.
func (t *Table) AddSeries(s *Series) { t.Series = append(t.Series, s) }

// AddScalar attaches a headline number.
func (t *Table) AddScalar(name string, v float64, unit string) {
	t.Scalars = append(t.Scalars, Scalar{Name: name, Value: v, Unit: unit})
}

// AddNote attaches free-form commentary rendered under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// xs returns the union of the series' x values in first-seen order: the
// rows of every rendering.
func (t *Table) xs() []float64 {
	var xs []float64
	seen := map[float64]bool{}
	for _, s := range t.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	return xs
}

// at returns the series' first point at x, if it has one.
func (s *Series) at(x float64) (Point, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p, true
		}
	}
	return Point{}, false
}

// String renders the table. Series are matched row-wise by x value; a
// series missing a given x renders a blank cell.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	// Header.
	fmt.Fprintf(&b, "%-12s", t.XLabel)
	for _, s := range t.Series {
		fmt.Fprintf(&b, " %18s", s.Name)
	}
	b.WriteString("\n")
	for _, x := range t.xs() {
		fmt.Fprintf(&b, "%-12.4g", x)
		for _, s := range t.Series {
			if p, ok := s.at(x); ok {
				cell := fmt.Sprintf("%.4g", p.Y)
				if p.Saturated {
					cell += "*"
				}
				fmt.Fprintf(&b, " %18s", cell)
			} else {
				fmt.Fprintf(&b, " %18s", "-")
			}
		}
		b.WriteString("\n")
	}
	if len(t.Scalars) > 0 {
		b.WriteString("--\n")
		for _, sc := range t.Scalars {
			fmt.Fprintf(&b, "%s: %.4g %s\n", sc.Name, sc.Value, sc.Unit)
		}
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	if strings.Contains(b.String(), "*") {
		b.WriteString("(* = saturated: latency diverging at this load)\n")
	}
	b.WriteString(fmt.Sprintf("[y: %s]\n", t.YLabel))
	return b.String()
}
