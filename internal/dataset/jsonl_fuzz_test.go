package dataset_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"focus/internal/dataset"
)

// FuzzJSONLSource fuzzes the JSON Lines decoder against the same small
// fixed schema as FuzzReadCSV. The oracle: ReadJSONL never panics; when it
// succeeds, the dataset satisfies Validate (no NaN/Inf, no out-of-domain
// values, no missing or extra attributes slip through), every non-blank
// line decodes to the same tuple under the map-based oracleDecode, and the
// dataset survives a WriteJSONL/ReadJSONL round trip unchanged (numeric
// values are written with full precision, categorical values by name).
func FuzzJSONLSource(f *testing.F) {
	for _, seed := range []string{
		`{"x":1.5,"color":"red","class":"A"}` + "\n" + `{"x":9,"color":"green","class":"B"}` + "\n",
		"",
		"\n\n  \n",
		`{"x":1.5,"color":"red"}`,
		`{"x":1,"color":"red","class":"A","y":2}`,
		`{"x":"red","color":"red","class":"A"}`,
		`{"x":11,"color":"red","class":"A"}`,
		`{"x":-1,"color":"red","class":"A"}`,
		`{"x":1,"color":"blue","class":"A"}`,
		`{"x":1e309,"color":"red","class":"A"}`,
		`{"x":1,"x":2,"color":"red","class":"A"}`,
		`{"class":"B","color":"green","x":0.30000000000000004}`,
		`[1.5,"red","A"]`,
		`{"x":null,"color":"red","class":"A"}`,
		`{"x":1,"color":null,"class":"A"}`,
		`not json`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s := fuzzSchema()
		d, err := dataset.ReadJSONL(strings.NewReader(in), s)
		if err != nil {
			return
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("ReadJSONL accepted a dataset that fails Validate: %v\ninput: %q", err, in)
		}
		var want []dataset.Tuple
		for _, line := range strings.Split(in, "\n") {
			line = strings.TrimSuffix(line, "\r")
			if strings.Trim(line, " \t\r\n") == "" {
				continue
			}
			tup, err := oracleDecode(s, []byte(line))
			if err != nil {
				t.Fatalf("ReadJSONL accepted a line the oracle rejects (%v): %q", err, line)
			}
			want = append(want, tup)
		}
		if !sameTuples(d.Tuples, want) {
			t.Fatalf("ReadJSONL tuples %v, oracle %v\ninput: %q", d.Tuples, want, in)
		}
		var buf bytes.Buffer
		if err := d.WriteJSONL(&buf); err != nil {
			t.Fatalf("WriteJSONL after successful ReadJSONL: %v", err)
		}
		d2, err := dataset.ReadJSONL(&buf, s)
		if err != nil {
			t.Fatalf("re-ReadJSONL after WriteJSONL: %v\ninput: %q", err, in)
		}
		if len(d.Tuples) != len(d2.Tuples) || (len(d.Tuples) > 0 && !reflect.DeepEqual(d.Tuples, d2.Tuples)) {
			t.Fatalf("JSONL round trip changed the dataset\ninput: %q", in)
		}
	})
}
