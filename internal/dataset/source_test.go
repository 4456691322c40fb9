package dataset_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"focus/internal/dataset"
)

// randDataset builds a valid dataset on fuzzSchema with n rows.
func randDataset(n int, seed int64) *dataset.Dataset {
	s := fuzzSchema()
	rng := rand.New(rand.NewSource(seed))
	d := dataset.New(s)
	for i := 0; i < n; i++ {
		d.Tuples = append(d.Tuples, dataset.Tuple{
			float64(rng.Intn(1000)) / 100, // x in [0, 10)
			float64(rng.Intn(2)),          // color
			float64(rng.Intn(2)),          // class
		})
	}
	return d
}

// drainCSV collects every batch of a CSVSource.
func drainSource(t *testing.T, src interface {
	Next(ctx context.Context) (*dataset.Dataset, error)
}) (*dataset.Dataset, []int) {
	t.Helper()
	var d *dataset.Dataset
	var sizes []int
	for {
		b, err := src.Next(context.Background())
		if err == io.EOF {
			return d, sizes
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if d == nil {
			d = dataset.New(b.Schema)
		}
		sizes = append(sizes, b.Len())
		d.Tuples = append(d.Tuples, b.Tuples...)
	}
}

// TestCSVSourceEquivalence pins the acceptance criterion of the streaming
// redesign: ReadCSV is byte-identical to draining the CSVSource, across a
// dataset large enough to span multiple source batches.
func TestCSVSourceEquivalence(t *testing.T) {
	want := randDataset(3*dataset.SourceBatchRows/2+17, 1)
	var buf bytes.Buffer
	if err := want.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	raw := buf.Bytes()

	read, err := dataset.ReadCSV(bytes.NewReader(raw), want.Schema)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	drained, sizes := drainSource(t, dataset.NewCSVSource(bytes.NewReader(raw), want.Schema))
	if !reflect.DeepEqual(read.Tuples, want.Tuples) {
		t.Fatal("ReadCSV diverges from the written dataset")
	}
	if !reflect.DeepEqual(drained.Tuples, read.Tuples) {
		t.Fatal("draining CSVSource diverges from ReadCSV")
	}
	if len(sizes) < 2 || sizes[0] != dataset.SourceBatchRows {
		t.Fatalf("source batches %v: want >= 2 batches of %d rows", sizes, dataset.SourceBatchRows)
	}
}

func TestJSONLSourceEquivalence(t *testing.T) {
	want := randDataset(dataset.SourceBatchRows+99, 2)
	var buf bytes.Buffer
	if err := want.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	read, err := dataset.ReadJSONL(bytes.NewReader(buf.Bytes()), want.Schema)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if !reflect.DeepEqual(read.Tuples, want.Tuples) {
		t.Fatal("WriteJSONL/ReadJSONL round trip diverges")
	}
	drained, _ := drainSource(t, dataset.NewJSONLSource(bytes.NewReader(buf.Bytes()), want.Schema))
	if !reflect.DeepEqual(drained.Tuples, want.Tuples) {
		t.Fatal("draining JSONLSource diverges from ReadJSONL")
	}
}

// countingReader counts the bytes handed downstream.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestReadCSVBoundedMemory pins the decoder-rewrite bugfix: a malformed row
// at offset k errors after ~k rows, with the row's line number preserved,
// instead of after buffering the entire input.
func TestReadCSVBoundedMemory(t *testing.T) {
	s := fuzzSchema()
	var sb strings.Builder
	sb.WriteString("x,color,class\n")
	const rowsTotal = 50000
	const badRow = 100 // 0-based row index; CSV line = badRow + 2
	for i := 0; i < rowsTotal; i++ {
		if i == badRow {
			sb.WriteString("999,red,A\n") // out of domain [0,10]
			continue
		}
		fmt.Fprintf(&sb, "%d.5,green,B\n", i%10)
	}
	input := sb.String()
	cr := &countingReader{r: strings.NewReader(input)}
	_, err := dataset.ReadCSV(cr, s)
	if err == nil {
		t.Fatal("malformed row accepted")
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("line %d", badRow+2)) {
		t.Fatalf("error %q does not carry line %d", err, badRow+2)
	}
	if limit := int64(len(input)) / 10; cr.n > limit {
		t.Fatalf("decoder consumed %d of %d bytes before failing at row %d; want <= %d (bounded, incremental validation)",
			cr.n, len(input), badRow, limit)
	}
}

func TestCSVSourceErrorLineNumbers(t *testing.T) {
	s := fuzzSchema()
	cases := []struct {
		name, input, wantSub string
	}{
		{"unknown categorical", "x,color,class\n1,red,A\n2,blue,B\n", "line 3"},
		{"non-finite", "x,color,class\n1,red,A\n1,red,A\nNaN,red,A\n", "line 4"},
		{"out of domain", "x,color,class\n-3,red,A\n", "line 2"},
		{"parse failure", "x,color,class\n1,red,A\nzap,red,A\n", "line 3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := dataset.ReadCSV(strings.NewReader(c.input), s)
			if err == nil {
				t.Fatal("accepted malformed input")
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
}

func TestJSONLSourceErrorLineNumbers(t *testing.T) {
	s := fuzzSchema()
	input := `{"x":1,"color":"red","class":"A"}` + "\n\n" + `{"x":11,"color":"red","class":"A"}` + "\n"
	_, err := dataset.ReadJSONL(strings.NewReader(input), s)
	if err == nil {
		t.Fatal("accepted out-of-domain row")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error %q does not mention line 3", err)
	}
}

func TestUnmarshalTupleJSON(t *testing.T) {
	s := fuzzSchema()
	cases := []struct {
		name, row string
		ok        bool
	}{
		{"valid", `{"x":1.5,"color":"red","class":"A"}`, true},
		{"any key order", `{"class":"B","x":0,"color":"green"}`, true},
		{"missing attribute", `{"x":1.5,"color":"red"}`, false},
		{"unknown attribute", `{"x":1,"color":"red","class":"A","y":2}`, false},
		{"unknown value", `{"x":1,"color":"cyan","class":"A"}`, false},
		{"type mismatch", `{"x":"red","color":"red","class":"A"}`, false},
		{"out of domain", `{"x":-1,"color":"red","class":"A"}`, false},
		{"overflow", `{"x":1e309,"color":"red","class":"A"}`, false},
		{"not an object", `[1.5,"red","A"]`, false},
		{"null number", `{"x":null,"color":"red","class":"A"}`, false},
		{"null category", `{"x":1,"color":null,"class":"A"}`, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tup, err := dataset.UnmarshalTupleJSON(s, []byte(c.row))
			if c.ok != (err == nil) {
				t.Fatalf("err = %v, want ok=%v", err, c.ok)
			}
			if c.ok {
				d := dataset.FromTuples(s, []dataset.Tuple{tup})
				if err := d.Validate(); err != nil {
					t.Fatalf("accepted tuple fails Validate: %v", err)
				}
			}
		})
	}
}

func TestCSVSourceContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := dataset.NewCSVSource(strings.NewReader("x,color,class\n1,red,A\n"), fuzzSchema())
	if _, err := src.Next(ctx); err != context.Canceled {
		t.Fatalf("cancelled Next: %v, want context.Canceled", err)
	}
}
