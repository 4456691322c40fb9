package dataset

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// TupleDecoder decodes JSON row objects into validated tuples on one
// schema — the row format of JSONLSource and of the focusd batch
// endpoints. Attribute names and categorical decode tables are indexed
// once, at construction.
//
// Decoding is one pass of a byte scanner over the input. Keys and
// categorical values that are plain ASCII without escapes are matched in
// place; any string holding a `\` escape or a byte >= 0x80 is unquoted by
// encoding/json, so its semantics (escapes, U+FFFD for invalid UTF-8) are
// exactly encoding/json's. Numbers follow the strict JSON grammar and are
// parsed by strconv.ParseFloat, rejecting any error (overflow), as
// encoding/json does. A key given twice keeps its last value; the earlier
// one is only syntax-checked. Every attribute must be present, no other
// key is allowed, numeric values must be finite numbers inside their
// domain, and categorical values must be known value names; null is
// neither a number nor a string.
//
// A TupleDecoder is safe for concurrent use.
type TupleDecoder struct {
	schema *Schema
	index  map[string]int       // attribute name -> position
	decode []map[string]float64 // per-attribute categorical decode tables
}

// NewTupleDecoder builds a row decoder on schema s.
func NewTupleDecoder(s *Schema) *TupleDecoder {
	index := make(map[string]int, len(s.Attrs))
	decode := make([]map[string]float64, len(s.Attrs))
	for i := range s.Attrs {
		index[s.Attrs[i].Name] = i
		if s.Attrs[i].Kind == Categorical {
			m := make(map[string]float64, len(s.Attrs[i].Values))
			for j, v := range s.Attrs[i].Values {
				m[v] = float64(j)
			}
			decode[i] = m
		}
	}
	return &TupleDecoder{schema: s, index: index, decode: decode}
}

// Decode decodes one JSON object mapping attribute names to values into a
// validated tuple: numeric attributes take finite JSON numbers inside
// their domain, categorical attributes take their value names as JSON
// strings. Every attribute of the schema must be present and no other keys
// are allowed.
func (td *TupleDecoder) Decode(data []byte) (Tuple, error) {
	t := make(Tuple, len(td.schema.Attrs))
	if err := td.newScanner().decodeInto(data, t); err != nil {
		return nil, err
	}
	return t, nil
}

// DecodeRows decodes a JSON array of row objects (each in Decode's
// format) into a validated batch, in one pass, with every tuple carved
// from one value arena. A null input decodes to an empty batch. Row errors
// name the 0-based row.
func (td *TupleDecoder) DecodeRows(raw []byte) (*Dataset, error) {
	sc := td.newScanner()
	sc.data, sc.pos = raw, 0
	d := New(td.schema)
	sc.skipWS()
	if sc.literal("null") {
		if err := sc.end(); err != nil {
			return nil, fmt.Errorf("rows must be an array of objects: %w", err)
		}
		return d, nil
	}
	if !sc.consume('[') {
		return nil, fmt.Errorf("rows must be an array of objects, not %s", sc.kind())
	}
	width := len(td.schema.Attrs)
	var vals []float64
	rows := 0
	sc.skipWS()
	if !sc.consume(']') {
		for {
			start := sc.pos
			vals = append(vals, make([]float64, width)...)
			if err := sc.row(vals[rows*width:(rows+1)*width], 2); err != nil {
				return nil, fmt.Errorf("row %d: %w", rows, err)
			}
			rows++
			if rows == 1 && sc.pos > start {
				// Size the arena from the first row: batches are
				// overwhelmingly uniform, so one allocation usually holds
				// them all.
				est := (len(raw)-sc.pos)/(sc.pos-start) + 1
				grown := make([]float64, width, (est+1)*width)
				copy(grown, vals)
				vals = grown
			}
			sc.skipWS()
			if sc.consume(']') {
				break
			}
			if !sc.consume(',') {
				return nil, fmt.Errorf("rows must be an array of objects: %w", sc.syntax("expected ',' or ']' after row"))
			}
			sc.skipWS()
		}
	}
	if err := sc.end(); err != nil {
		return nil, fmt.Errorf("rows must be an array of objects: %w", err)
	}
	d.Tuples = make([]Tuple, rows)
	for i := range d.Tuples {
		d.Tuples[i] = Tuple(vals[i*width : (i+1)*width : (i+1)*width])
	}
	return d, nil
}

// maxNestingDepth is encoding/json's nesting limit: a value nested deeper
// than this is a syntax error there, so it is here too.
const maxNestingDepth = 10000

// rowScanner is TupleDecoder's single-goroutine scanning state: the input
// and a cursor, plus per-attribute scratch for the row being decoded.
// seen[j] == stamp marks attribute j present in the current row and errs[j]
// holds the verdict on its value, so a duplicate key keeps only its last
// value's verdict.
type rowScanner struct {
	td    *TupleDecoder
	data  []byte
	pos   int
	seen  []uint32
	errs  []error
	stamp uint32
}

func (td *TupleDecoder) newScanner() *rowScanner {
	n := len(td.schema.Attrs)
	return &rowScanner{td: td, seen: make([]uint32, n), errs: make([]error, n)}
}

// decodeInto decodes one JSON row object filling the whole of data into t,
// which has one slot per schema attribute.
func (sc *rowScanner) decodeInto(data []byte, t Tuple) error {
	sc.data, sc.pos = data, 0
	sc.skipWS()
	if err := sc.row(t, 1); err != nil {
		return err
	}
	return sc.end()
}

// syntax reports malformed JSON at the cursor.
func (sc *rowScanner) syntax(msg string) error {
	if sc.pos >= len(sc.data) {
		return fmt.Errorf("invalid JSON at offset %d: unexpected end of input", sc.pos)
	}
	return fmt.Errorf("invalid JSON at offset %d: %s, found %q", sc.pos, msg, sc.data[sc.pos])
}

// end requires that only whitespace remains.
func (sc *rowScanner) end() error {
	sc.skipWS()
	if sc.pos != len(sc.data) {
		return sc.syntax("expected end of input")
	}
	return nil
}

func (sc *rowScanner) skipWS() {
	for sc.pos < len(sc.data) {
		switch sc.data[sc.pos] {
		case ' ', '\t', '\n', '\r':
			sc.pos++
		default:
			return
		}
	}
}

// consume advances past c if it is the next byte.
func (sc *rowScanner) consume(c byte) bool {
	if sc.pos < len(sc.data) && sc.data[sc.pos] == c {
		sc.pos++
		return true
	}
	return false
}

// literal advances past lit if the input continues with it.
func (sc *rowScanner) literal(lit string) bool {
	if len(sc.data)-sc.pos >= len(lit) && string(sc.data[sc.pos:sc.pos+len(lit)]) == lit {
		sc.pos += len(lit)
		return true
	}
	return false
}

// row decodes one row value at depth into t: an object, or null (an
// object without keys, as encoding/json decodes it into a map).
func (sc *rowScanner) row(t Tuple, depth int) error {
	sc.stamp++
	if sc.stamp == 0 {
		clear(sc.seen)
		sc.stamp = 1
	}
	var unknown span // the first unknown key
	if !sc.literal("null") {
		if !sc.consume('{') {
			if sc.pos < len(sc.data) {
				return fmt.Errorf("%s is not an object", sc.kind())
			}
			return sc.syntax("expected a row object")
		}
		sc.skipWS()
		next := 0 // keys usually arrive in schema order
		if !sc.consume('}') {
			for {
				ks, ke, plain, err := sc.str()
				if err != nil {
					return err
				}
				j := sc.attrIndex(ks, ke, plain, next)
				sc.skipWS()
				if !sc.consume(':') {
					return sc.syntax("expected ':' after object key")
				}
				sc.skipWS()
				if j < 0 {
					if !unknown.found {
						unknown = span{ks, ke, plain, true}
					}
					if err := sc.skip(depth + 1); err != nil {
						return err
					}
				} else {
					v, verr, err := sc.value(j, depth+1)
					if err != nil {
						return err
					}
					t[j], sc.errs[j], sc.seen[j] = v, verr, sc.stamp
					next = j + 1
				}
				sc.skipWS()
				if sc.consume('}') {
					break
				}
				if !sc.consume(',') {
					return sc.syntax("expected ',' or '}' after object value")
				}
				sc.skipWS()
			}
		}
	}
	s := sc.td.schema
	for j := range s.Attrs {
		if sc.seen[j] != sc.stamp {
			return fmt.Errorf("missing attribute %q", s.Attrs[j].Name)
		}
		if sc.errs[j] != nil {
			return sc.errs[j]
		}
	}
	if unknown.found {
		return fmt.Errorf("unknown attribute %q", sc.text(unknown.start, unknown.end, unknown.plain))
	}
	return nil
}

// span locates a scanned string's contents in the input.
type span struct {
	start, end int
	plain      bool
	found      bool
}

// attrIndex resolves the key data[start:end] to its attribute position, or
// -1. A plain key is first compared with the attribute expected next, then
// looked up without allocating.
func (sc *rowScanner) attrIndex(start, end int, plain bool, next int) int {
	td := sc.td
	if !plain {
		j, ok := td.index[sc.text(start, end, false)]
		if !ok {
			return -1
		}
		return j
	}
	key := sc.data[start:end]
	if next < len(td.schema.Attrs) && string(key) == td.schema.Attrs[next].Name {
		return next
	}
	j, ok := td.index[string(key)]
	if !ok {
		return -1
	}
	return j
}

// value decodes attribute j's value. A malformed value is a syntax error
// (err); a well-formed value the attribute does not admit is a validation
// verdict (verr), deferred so a later duplicate key can replace it.
func (sc *rowScanner) value(j, depth int) (v float64, verr, err error) {
	a := &sc.td.schema.Attrs[j]
	if sc.pos >= len(sc.data) {
		return 0, nil, sc.syntax("expected a value")
	}
	c := sc.data[sc.pos]
	if m := sc.td.decode[j]; m != nil {
		if c != '"' {
			kind := sc.kind()
			if err := sc.skip(depth); err != nil {
				return 0, nil, err
			}
			return 0, fmt.Errorf("attribute %q: %s is not a string", a.Name, kind), nil
		}
		start, end, plain, err := sc.str()
		if err != nil {
			return 0, nil, err
		}
		var ok bool
		if plain {
			v, ok = m[string(sc.data[start:end])]
		} else {
			v, ok = m[sc.text(start, end, false)]
		}
		if !ok {
			return 0, fmt.Errorf("unknown value %q for attribute %q", sc.text(start, end, plain), a.Name), nil
		}
		return v, nil, nil
	}
	if c != '-' && (c < '0' || c > '9') {
		kind := sc.kind()
		if err := sc.skip(depth); err != nil {
			return 0, nil, err
		}
		return 0, fmt.Errorf("attribute %q: %s is not a number", a.Name, kind), nil
	}
	lit, err := sc.number()
	if err != nil {
		return 0, nil, err
	}
	v, perr := strconv.ParseFloat(string(lit), 64)
	if perr != nil {
		return 0, fmt.Errorf("attribute %q: %w", a.Name, perr), nil
	}
	// The JSON grammar has no NaN or Inf and overflow is rejected above,
	// but guard anyway so the validated-output invariant never depends on
	// the parser.
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("attribute %q: value is not finite", a.Name), nil
	}
	if !a.Contains(v) {
		return 0, fmt.Errorf("attribute %q: value %v outside domain", a.Name, v), nil
	}
	return v, nil, nil
}

// kind names the JSON value starting at the cursor, for error messages.
func (sc *rowScanner) kind() string {
	if sc.pos >= len(sc.data) {
		return "nothing"
	}
	switch c := sc.data[sc.pos]; {
	case c == '"':
		return "string"
	case c == '{':
		return "object"
	case c == '[':
		return "array"
	case c == 't' || c == 'f':
		return "boolean"
	case c == 'n':
		return "null"
	case c == '-' || c >= '0' && c <= '9':
		return "number"
	default:
		return fmt.Sprintf("%q", c)
	}
}

// text returns the contents of the string scanned at data[start:end]: the
// bytes themselves when plain, otherwise as encoding/json unquotes the
// literal around them.
func (sc *rowScanner) text(start, end int, plain bool) string {
	if plain {
		return string(sc.data[start:end])
	}
	var s string
	// str validated the literal, so unquoting cannot fail.
	_ = json.Unmarshal(sc.data[start-1:end+1], &s)
	return s
}

// str scans a string literal at the cursor and returns the offsets of its
// raw contents (between the quotes) and whether they are plain: ASCII with
// no escapes, equal to the decoded string.
func (sc *rowScanner) str() (start, end int, plain bool, err error) {
	if !sc.consume('"') {
		return 0, 0, false, sc.syntax("expected a string")
	}
	start = sc.pos
	plain = true
	for sc.pos < len(sc.data) {
		c := sc.data[sc.pos]
		switch {
		case c == '"':
			end = sc.pos
			sc.pos++
			return start, end, plain, nil
		case c < 0x20:
			return 0, 0, false, sc.syntax("control character in string")
		case c == '\\':
			plain = false
			sc.pos++
			if sc.pos >= len(sc.data) {
				return 0, 0, false, sc.syntax("unterminated escape")
			}
			switch sc.data[sc.pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				sc.pos++
			case 'u':
				sc.pos++
				for i := 0; i < 4; i++ {
					if sc.pos >= len(sc.data) || !isHex(sc.data[sc.pos]) {
						return 0, 0, false, sc.syntax("invalid \\u escape")
					}
					sc.pos++
				}
			default:
				return 0, 0, false, sc.syntax("invalid escape")
			}
		default:
			if c >= 0x80 {
				plain = false
			}
			sc.pos++
		}
	}
	return 0, 0, false, sc.syntax("unterminated string")
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// number scans a number literal at the cursor under the strict JSON
// grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (sc *rowScanner) number() ([]byte, error) {
	start := sc.pos
	sc.consume('-')
	switch {
	case sc.consume('0'):
	case sc.pos < len(sc.data) && sc.data[sc.pos] >= '1' && sc.data[sc.pos] <= '9':
		sc.digits()
	default:
		return nil, sc.syntax("expected a digit")
	}
	if sc.consume('.') {
		if sc.digits() == 0 {
			return nil, sc.syntax("expected a digit after the decimal point")
		}
	}
	if sc.consume('e') || sc.consume('E') {
		if !sc.consume('+') {
			sc.consume('-')
		}
		if sc.digits() == 0 {
			return nil, sc.syntax("expected a digit in the exponent")
		}
	}
	return sc.data[start:sc.pos], nil
}

// digits advances past a run of decimal digits and returns its length.
func (sc *rowScanner) digits() int {
	start := sc.pos
	for sc.pos < len(sc.data) && isDigit(sc.data[sc.pos]) {
		sc.pos++
	}
	return sc.pos - start
}

// skip syntax-checks and skips the value at the cursor, nested at depth.
func (sc *rowScanner) skip(depth int) error {
	if sc.pos >= len(sc.data) {
		return sc.syntax("expected a value")
	}
	switch c := sc.data[sc.pos]; {
	case c == '"':
		_, _, _, err := sc.str()
		return err
	case c == '-' || isDigit(c):
		_, err := sc.number()
		return err
	case c == '{' || c == '[':
		if depth > maxNestingDepth {
			return sc.syntax("exceeded max depth")
		}
		closer := byte('}')
		if c == '[' {
			closer = ']'
		}
		sc.pos++
		sc.skipWS()
		if sc.consume(closer) {
			return nil
		}
		for {
			if c == '{' {
				if _, _, _, err := sc.str(); err != nil {
					return err
				}
				sc.skipWS()
				if !sc.consume(':') {
					return sc.syntax("expected ':' after object key")
				}
				sc.skipWS()
			}
			if err := sc.skip(depth + 1); err != nil {
				return err
			}
			sc.skipWS()
			if sc.consume(closer) {
				return nil
			}
			if !sc.consume(',') {
				return sc.syntax("expected ',' or a closing bracket")
			}
			sc.skipWS()
		}
	case sc.literal("true"), sc.literal("false"), sc.literal("null"):
		return nil
	default:
		return sc.syntax("expected a value")
	}
}

// UnmarshalTupleJSON decodes one JSON row object into a validated tuple on
// s. For row streams, build a TupleDecoder once instead.
func UnmarshalTupleJSON(s *Schema, data []byte) (Tuple, error) {
	return NewTupleDecoder(s).Decode(data)
}
