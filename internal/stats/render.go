package stats

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// CSV renders the table in RFC-4180 form, one row per x value with one
// column per series, for downstream plotting. Saturated points carry a
// trailing asterisk in their cell, matching the text renderer.
func (t *Table) CSV() string {
	var b strings.Builder
	cols := []string{csvEscape(t.XLabel)}
	for _, s := range t.Series {
		cols = append(cols, csvEscape(s.Name))
	}
	b.WriteString(strings.Join(cols, ","))
	b.WriteString("\r\n")
	for _, x := range t.xs() {
		row := []string{strconv.FormatFloat(x, 'g', -1, 64)}
		for _, s := range t.Series {
			cell := ""
			if p, ok := s.at(x); ok {
				cell = strconv.FormatFloat(p.Y, 'g', -1, 64)
				if p.Saturated {
					cell += "*"
				}
			}
			row = append(row, cell)
		}
		b.WriteString(strings.Join(row, ","))
		b.WriteString("\r\n")
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\r\n") {
		return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
	}
	return s
}

// Plot renders the table's series as an ASCII scatter plot (width x
// height characters plus axes), with one marker letter per series in
// declaration order: a, b, c, ... Points beyond the 99th percentile of
// y values are clamped so saturated tails do not flatten the
// interesting region.
func (t *Table) Plot(width, height int) string {
	if width < 16 {
		width = 16
	}
	if height < 8 {
		height = 8
	}
	var xmin, xmax = math.Inf(1), math.Inf(-1)
	var ys []float64
	for _, s := range t.Series {
		for _, p := range s.Points {
			xmin = math.Min(xmin, p.X)
			xmax = math.Max(xmax, p.X)
			ys = append(ys, p.Y)
		}
	}
	if len(ys) == 0 {
		return "(no data)\n"
	}
	ymin, ymax := minMaxClamped(ys)
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range t.Series {
		marker := byte('a' + si%26)
		for _, p := range s.Points {
			y := math.Min(p.Y, ymax)
			cx := int(math.Round((p.X - xmin) / (xmax - xmin) * float64(width-1)))
			cy := int(math.Round((y - ymin) / (ymax - ymin) * float64(height-1)))
			row := height - 1 - cy
			cell := grid[row][cx]
			if cell != ' ' && cell != marker {
				grid[row][cx] = '+'
			} else {
				grid[row][cx] = marker
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s vs %s)\n", t.Title, t.YLabel, t.XLabel)
	for r, row := range grid {
		label := "        "
		if r == 0 {
			label = fmt.Sprintf("%8.3g", ymax)
		} else if r == height-1 {
			label = fmt.Sprintf("%8.3g", ymin)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(row))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", 8), strings.Repeat("-", width))
	fmt.Fprintf(&b, "%s  %-10.3g%s%10.3g\n", strings.Repeat(" ", 8), xmin,
		strings.Repeat(" ", max(1, width-20)), xmax)
	for si, s := range t.Series {
		fmt.Fprintf(&b, "  %c = %s\n", byte('a'+si%26), s.Name)
	}
	return b.String()
}

// minMaxClamped returns the min and the 99th-percentile max so one
// diverging saturated point does not crush the plot.
func minMaxClamped(ys []float64) (float64, float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, y := range ys {
		lo = math.Min(lo, y)
		hi = math.Max(hi, y)
	}
	sorted := append([]float64(nil), ys...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	p99 := sorted[(len(sorted)-1)*99/100]
	if p99 >= lo {
		hi = p99
	}
	return lo, hi
}
