package dataset_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"focus/internal/classgen"
	"focus/internal/dataset"
)

// oracleDecode is the map-based row decoder TupleDecoder's scanner
// replaced, kept as the differential oracle: encoding/json unmarshals the
// row into a map of raw values (so a duplicate key keeps its last value,
// the earlier one only syntax-checked) and each attribute's value is
// unmarshaled on its own. It differs from the old production path in one
// deliberate way: a null value is rejected for both kinds, where
// encoding/json would leave 0 (numeric) or "" (categorical) behind.
func oracleDecode(s *dataset.Schema, data []byte) (dataset.Tuple, error) {
	var row map[string]json.RawMessage
	if err := json.Unmarshal(data, &row); err != nil {
		return nil, err
	}
	t := make(dataset.Tuple, len(s.Attrs))
	for j := range s.Attrs {
		a := &s.Attrs[j]
		raw, ok := row[a.Name]
		if !ok {
			return nil, fmt.Errorf("missing attribute %q", a.Name)
		}
		if string(raw) == "null" {
			return nil, fmt.Errorf("attribute %q: null", a.Name)
		}
		if a.Kind == dataset.Categorical {
			var name string
			if err := json.Unmarshal(raw, &name); err != nil {
				return nil, fmt.Errorf("attribute %q: %w", a.Name, err)
			}
			v := -1
			for k, val := range a.Values {
				if val == name {
					v = k
					break
				}
			}
			if v < 0 {
				return nil, fmt.Errorf("unknown value %q for attribute %q", name, a.Name)
			}
			t[j] = float64(v)
			continue
		}
		var v float64
		if err := json.Unmarshal(raw, &v); err != nil {
			return nil, fmt.Errorf("attribute %q: %w", a.Name, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || !a.Contains(v) {
			return nil, fmt.Errorf("attribute %q: value %v rejected", a.Name, v)
		}
		t[j] = v
	}
	for name := range row {
		if s.AttrIndex(name) < 0 {
			return nil, fmt.Errorf("unknown attribute %q", name)
		}
	}
	return t, nil
}

// oracleDecodeRows is the batch form of oracleDecode: the whole array is
// unmarshaled into raw rows first, then each row is decoded.
func oracleDecodeRows(s *dataset.Schema, raw []byte) (*dataset.Dataset, error) {
	var rows []json.RawMessage
	if err := json.Unmarshal(raw, &rows); err != nil {
		return nil, err
	}
	d := dataset.New(s)
	for i, r := range rows {
		t, err := oracleDecode(s, r)
		if err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
		d.Tuples = append(d.Tuples, t)
	}
	return d, nil
}

// decodeSchema is fuzzSchema with categorical values that only match after
// unquoting: a non-ASCII name, and U+FFFD, which encoding/json substitutes
// for invalid UTF-8.
func decodeSchema() *dataset.Schema {
	return dataset.NewClassSchema(2,
		dataset.Attribute{Name: "x", Kind: dataset.Numeric, Min: 0, Max: 10},
		dataset.Attribute{Name: "color", Kind: dataset.Categorical, Values: []string{"red", "green", "grün", "\uFFFD"}},
		dataset.Attribute{Name: "class", Kind: dataset.Categorical, Values: []string{"A", "B"}},
	)
}

// sameTuples reports whether two tuple lists are bit-identical.
func sameTuples(a, b []dataset.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// checkAgainstOracle compares DecodeRows and Decode with the oracle on in:
// the same accept/reject verdict and bit-identical tuples.
func checkAgainstOracle(t *testing.T, s *dataset.Schema, in []byte) {
	t.Helper()
	td := dataset.NewTupleDecoder(s)
	got, err := td.DecodeRows(in)
	want, werr := oracleDecodeRows(s, in)
	if (err == nil) != (werr == nil) {
		t.Fatalf("DecodeRows err = %v, oracle err = %v\ninput: %q", err, werr, in)
	}
	if err == nil && !sameTuples(got.Tuples, want.Tuples) {
		t.Fatalf("DecodeRows tuples %v, oracle %v\ninput: %q", got.Tuples, want.Tuples, in)
	}
	tup, err := td.Decode(in)
	wtup, werr := oracleDecode(s, in)
	if (err == nil) != (werr == nil) {
		t.Fatalf("Decode err = %v, oracle err = %v\ninput: %q", err, werr, in)
	}
	if err == nil && !sameTuples([]dataset.Tuple{tup}, []dataset.Tuple{wtup}) {
		t.Fatalf("Decode tuple %v, oracle %v\ninput: %q", tup, wtup, in)
	}
}

// decodeSeeds cover the corners where a hand-written scanner can part
// ways with encoding/json; go test runs them as FuzzDecodeRows subtests.
var decodeSeeds = []string{
	`[{"x":1.5,"color":"red","class":"A"},{"x":9,"color":"green","class":"B"}]`,
	`{"x":1.5,"color":"red","class":"A"}`,
	// Escapes, non-ASCII and invalid UTF-8.
	`[{"\u0078":1,"color":"r\u0065d","class":"\u0041"}]`,
	`[{"x":1,"color":"gr\u00fcn","class":"A"}]`,
	`[{"x":1,"color":"grün","class":"A"}]`,
	"[{\"x\":1,\"color\":\"\xff\",\"class\":\"A\"}]",
	"[{\"x\":1,\"color\":\"gr\xc3\",\"class\":\"A\"}]",
	"[{\"x\xff\":1,\"color\":\"red\",\"class\":\"A\"}]",
	`[{"x":1,"color":"red","class":"A\ud800"}]`,
	`[{"x":1,"color":"\/red","class":"A"}]`,
	`[{"x":1,"color":"red\u","class":"A"}]`,
	`[{"x":1,"color":"red\q","class":"A"}]`,
	"[{\"x\":1,\"color\":\"re\td\",\"class\":\"A\"}]",
	// Duplicate keys: the last value wins, the first is only syntax-checked.
	`[{"x":"bad","x":2,"color":"red","class":"A"}]`,
	`[{"x":2,"x":"bad","color":"red","class":"A"}]`,
	`[{"x":null,"x":2,"color":"red","class":"A"}]`,
	`[{"x":2,"color":"cyan","color":"red","class":"A"}]`,
	`[{"x":2,"color":"red","class":"A","class":[1,}]`,
	// Nested unknown values and whitespace everywhere.
	`[{"x":1,"color":"red","class":"A","meta":{"a":[1,{"b":null}],"c":true}}]`,
	`[{"x":1,"color":"red","class":"A","meta":{"a":[1,{"b":nul}]}}]`,
	" \t\n[ \r{ \"x\" : 1 ,\n\"color\"\t:\"red\" , \"class\" : \"B\" } , {\"class\":\"A\",\"color\":\"green\",\"x\":0} ]\n ",
	`[{"x":1,"color":{"a":1},"class":"A"}]`,
	`[{"x":[1],"color":"red","class":"A"}]`,
	// Numbers.
	`[{"x":01,"color":"red","class":"A"}]`,
	`[{"x":1.,"color":"red","class":"A"}]`,
	`[{"x":-0,"color":"red","class":"A"}]`,
	`[{"x":1e309,"color":"red","class":"A"}]`,
	`[{"x":1e-400,"color":"red","class":"A"}]`,
	`[{"x":.5,"color":"red","class":"A"}]`,
	`[{"x":+1,"color":"red","class":"A"}]`,
	`[{"x":1E+0,"color":"red","class":"A"}]`,
	`[{"x":0.30000000000000004,"color":"red","class":"A"}]`,
	`[{"x":1e,"color":"red","class":"A"}]`,
	`[{"x":-,"color":"red","class":"A"}]`,
	`[{"x":"1","color":"red","class":"A"}]`,
	`[{"x":true,"color":"red","class":"A"}]`,
	// null, empty and trailing commas.
	`null`,
	`[null]`,
	`[]`,
	` [ ] `,
	`[{"x":null,"color":"red","class":"A"}]`,
	`[{"x":1,"color":null,"class":"A"}]`,
	`[{"x":1,"color":"red","class":"A"},]`,
	`[{"x":1,"color":"red","class":"A",}]`,
	`[{"x":1,"color":"red","class":"A"}]x`,
	`[{"x":1,"color":"red","class":"A"}`,
	`[{"x":1,"color":"red","class":"A"}][]`,
	`[[1,"red","A"]]`,
	`{}`,
	`"rows"`,
	``,
}

// TestDecodeRowsDepthLimit pins encoding/json's nesting limit in a value
// that is only syntax-checked (a duplicate key's first value): 10000
// levels (the rows array and the row object count two) are accepted, one
// more is rejected.
func TestDecodeRowsDepthLimit(t *testing.T) {
	for _, c := range []struct {
		extra int
		ok    bool
	}{{9998, true}, {9999, false}} {
		in := []byte(`[{"x":1,"color":"red","class":` + strings.Repeat("[", c.extra) +
			strings.Repeat("]", c.extra) + `,"class":"A"}]`)
		checkAgainstOracle(t, decodeSchema(), in)
		if _, err := dataset.NewTupleDecoder(decodeSchema()).DecodeRows(in); (err == nil) != c.ok {
			t.Fatalf("nesting %d: err = %v, want ok=%v", c.extra+2, err, c.ok)
		}
	}
}

// FuzzDecodeRows differentially fuzzes the one-pass row scanner against
// the map-based oracle: the same accept/reject verdict, and tuples that
// are Float64bits-identical, for both the batch (DecodeRows) and the
// single-row (Decode) entry points.
func FuzzDecodeRows(f *testing.F) {
	for _, seed := range decodeSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		checkAgainstOracle(t, decodeSchema(), []byte(in))
	})
}

// classgenRows renders a 500-tuple classgen batch (~110 KB) in the rows
// wire format: the tuple-feed batch of the system benchmark.
func classgenRows(b *testing.B) (*dataset.Schema, []byte) {
	b.Helper()
	d, err := classgen.Generate(classgen.Config{NumTuples: 500, Function: classgen.F1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteJSONL(&buf); err != nil {
		b.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(buf.Bytes(), "\n"), []byte("\n"))
	raw := append([]byte{'['}, bytes.Join(lines, []byte(","))...)
	return d.Schema, append(raw, ']')
}

var sinkRows *dataset.Dataset

// BenchmarkTupleRowsDecode decodes one tuple-feed batch with the one-pass
// scanner.
func BenchmarkTupleRowsDecode(b *testing.B) {
	s, raw := classgenRows(b)
	td := dataset.NewTupleDecoder(s)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := td.DecodeRows(raw)
		if err != nil {
			b.Fatal(err)
		}
		sinkRows = d
	}
}

// BenchmarkTupleRowsDecodeOracle decodes the same batch with the
// map-based oracle, the production path before the scanner.
func BenchmarkTupleRowsDecodeOracle(b *testing.B) {
	s, raw := classgenRows(b)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := oracleDecodeRows(s, raw)
		if err != nil {
			b.Fatal(err)
		}
		sinkRows = d
	}
}
