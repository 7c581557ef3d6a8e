package stats

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
)

// Stable table/series encoding: a Table is encoded field by field in
// one fixed order with IEEE-754 bit patterns for every float, so
// encoding is a pure function of the table's value — no map iteration,
// no float formatting — and equal tables are equal bytes, with an exact
// decode. No store holds tables (the result cache holds simulation
// points only); the codec is kept for the bench ledger, which digests
// figure tables with it and times it.

// tableLayoutVersion versions the encoding below. Bump on any layout
// change; DecodeTable rejects any other version rather than misdecode
// it.
const tableLayoutVersion = 1

// EncodeTable renders the table as stable bytes.
func EncodeTable(t *Table) []byte {
	var b []byte
	b = append(b, tableLayoutVersion)
	b = appendString(b, t.Title)
	b = appendString(b, t.XLabel)
	b = appendString(b, t.YLabel)
	b = binary.AppendUvarint(b, uint64(len(t.Series)))
	for _, s := range t.Series {
		b = appendString(b, s.Name)
		b = binary.AppendUvarint(b, uint64(len(s.Points)))
		for _, p := range s.Points {
			b = appendFloat(b, p.X)
			b = appendFloat(b, p.Y)
			b = appendBool(b, p.Saturated)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(t.Scalars)))
	for _, sc := range t.Scalars {
		b = appendString(b, sc.Name)
		b = appendFloat(b, sc.Value)
		b = appendString(b, sc.Unit)
	}
	b = binary.AppendUvarint(b, uint64(len(t.Notes)))
	for _, n := range t.Notes {
		b = appendString(b, n)
	}
	return b
}

// DecodeTable inverts EncodeTable. Any truncation, trailing garbage or
// version mismatch is an error; cache layers treat it as a miss.
func DecodeTable(b []byte) (*Table, error) {
	d := &decoder{b: b}
	if v := d.byte(); v != tableLayoutVersion {
		return nil, fmt.Errorf("stats: table layout version %d, want %d", v, tableLayoutVersion)
	}
	t := &Table{
		Title:  d.string(),
		XLabel: d.string(),
		YLabel: d.string(),
	}
	for i, n := 0, d.count(); i < n; i++ {
		s := &Series{Name: d.string()}
		for j, m := 0, d.count(); j < m; j++ {
			s.Points = append(s.Points, Point{X: d.float(), Y: d.float(), Saturated: d.bool()})
		}
		t.Series = append(t.Series, s)
	}
	for i, n := 0, d.count(); i < n; i++ {
		t.Scalars = append(t.Scalars, Scalar{Name: d.string(), Value: d.float(), Unit: d.string()})
	}
	for i, n := 0, d.count(); i < n; i++ {
		t.Notes = append(t.Notes, d.string())
	}
	if d.err == nil && len(d.b) != 0 {
		return nil, fmt.Errorf("stats: %d trailing bytes after table", len(d.b))
	}
	if d.err != nil {
		return nil, d.err
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

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendFloat(b []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(f))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// decoder consumes the encoding above, latching the first error so the
// read methods can be chained without per-call checks.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("stats: truncated table encoding")
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) count() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 || v > uint64(len(d.b)) {
		// A count can never exceed the remaining bytes (every element
		// is at least one byte); rejecting here also bounds allocation
		// on corrupt input.
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

func (d *decoder) string() string {
	n := d.count()
	if d.err != nil || len(d.b) < n {
		d.fail()
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) float() float64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *decoder) bool() bool { return d.byte() != 0 }
