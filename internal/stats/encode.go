package stats

import (
	"encoding/json"
	"fmt"
	"math"
)

// EncodeTable is the table's one encoding, Table.JSON: field order is
// fixed by the struct declarations below and every float is written in
// its shortest exact form, so equal tables are equal bytes and
// DecodeTable inverts it exactly. The bench ledger digests figure tables
// with it and times it.
func EncodeTable(t *Table) []byte {
	b, err := t.JSON()
	if err != nil {
		panic(err) // jsonFloat covers every value a float64 can take
	}
	return b
}

// DecodeTable inverts EncodeTable. Malformed input, truncation and
// trailing bytes are errors.
func DecodeTable(b []byte) (*Table, error) {
	var v jsonTable
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, fmt.Errorf("stats: decoding table: %w", err)
	}
	t := &Table{Title: v.Title, XLabel: v.XLabel, YLabel: v.YLabel, Notes: v.Notes}
	for _, js := range v.Series {
		s := &Series{Name: js.Name}
		for _, p := range js.Points {
			s.Points = append(s.Points, Point{X: float64(p.X), Y: float64(p.Y), Saturated: p.Saturated})
		}
		t.Series = append(t.Series, s)
	}
	for _, sc := range v.Scalars {
		t.Scalars = append(t.Scalars, Scalar{Name: sc.Name, Value: float64(sc.Value), Unit: sc.Unit})
	}
	return t, nil
}

// JSON renders the table as indented JSON for the figure service's
// machine-readable format. Field order follows the struct declarations
// below, so the output is deterministic. Non-finite values — a
// saturated point's divergent latency is +Inf — have no JSON number
// form and render as the strings "+Inf", "-Inf", "NaN".
func (t *Table) JSON() ([]byte, error) {
	v := jsonTable{
		Title:  t.Title,
		XLabel: t.XLabel,
		YLabel: t.YLabel,
	}
	for _, s := range t.Series {
		js := jsonSeries{Name: s.Name, Points: []jsonPoint{}}
		for _, p := range s.Points {
			js.Points = append(js.Points, jsonPoint{
				X: jsonFloat(p.X), Y: jsonFloat(p.Y), Saturated: p.Saturated,
			})
		}
		v.Series = append(v.Series, js)
	}
	for _, sc := range t.Scalars {
		v.Scalars = append(v.Scalars, jsonScalar{
			Name: sc.Name, Value: jsonFloat(sc.Value), Unit: sc.Unit,
		})
	}
	v.Notes = t.Notes
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

type jsonTable struct {
	Title   string       `json:"title"`
	XLabel  string       `json:"xLabel"`
	YLabel  string       `json:"yLabel"`
	Series  []jsonSeries `json:"series"`
	Scalars []jsonScalar `json:"scalars,omitempty"`
	Notes   []string     `json:"notes,omitempty"`
}

type jsonSeries struct {
	Name   string      `json:"name"`
	Points []jsonPoint `json:"points"`
}

type jsonPoint struct {
	X         jsonFloat `json:"x"`
	Y         jsonFloat `json:"y"`
	Saturated bool      `json:"saturated,omitempty"`
}

type jsonScalar struct {
	Name  string    `json:"name"`
	Value jsonFloat `json:"value"`
	Unit  string    `json:"unit,omitempty"`
}

// jsonFloat marshals non-finite values as strings, which plain float64
// cannot represent in JSON.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}

func (f *jsonFloat) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"+Inf"`:
		*f = jsonFloat(math.Inf(1))
	case `"-Inf"`:
		*f = jsonFloat(math.Inf(-1))
	case `"NaN"`:
		*f = jsonFloat(math.NaN())
	default:
		return json.Unmarshal(b, (*float64)(f))
	}
	return nil
}
