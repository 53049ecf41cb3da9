package serve

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"repro/internal/dataset"
)

// reqBuf is one request's pooled storage: the body bytes, the call the
// batcher queues (rows, the label output slice, completion), the flat
// backing array the rows are chunked out of (the dataset.AppendRow value
// convention) and the reply bytes. Buffers flow through a sync.Pool with
// always-on get/put counters in Stats — the decode-failure regression test
// asserts the balance, so a 400 path that forgets to release shows up as a
// counter gap, not a silent slow leak.
type reqBuf struct {
	body []byte
	call
	flat  []float64
	reply []byte
}

var reqBufPool = sync.Pool{New: func() any { return &reqBuf{call: *newCall(nil, nil)} }}

func (s *Server) getBuf() *reqBuf {
	s.stats.BufGets.Add(1)
	return reqBufPool.Get().(*reqBuf)
}

func (s *Server) putBuf(b *reqBuf) {
	b.flat = b.flat[:0]
	b.rows = b.rows[:0]
	s.stats.BufPuts.Add(1)
	reqBufPool.Put(b)
}

// addRow carves the next nattrs-wide row out of the flat backing and
// returns it. A growth of flat strands earlier rows on the old backing
// array, which is harmless — each row slice stays self-consistent — and
// stops happening once the pooled buffer has warmed to the traffic's
// request sizes.
func (b *reqBuf) addRow(nattrs int) []float64 {
	lo := len(b.flat)
	for i := 0; i < nattrs; i++ {
		b.flat = append(b.flat, 0)
	}
	b.rows = append(b.rows, b.flat[lo:lo+nattrs])
	return b.rows[len(b.rows)-1]
}

// decodeError is a 400-class request problem (anything malformed in the
// body); other error types from the decoders indicate server-side limits.
type decodeError struct{ msg string }

func (e *decodeError) Error() string { return e.msg }

func badReqf(format string, args ...any) error {
	return &decodeError{msg: fmt.Sprintf(format, args...)}
}

// decodeJSONRows parses an application/json prediction body into buf. The
// body is an object with either "rows" (a group) or "row" (a single
// record), values in schema attribute order. Continuous attributes take
// numbers; categorical attributes take either the domain value's string
// name or its integral index.
//
// The body is read in one pass that keeps the semantics of the reflective
// decoder it replaced (json.Decoder.Decode into [][]any, frozen in
// decode_oracle_test.go): only the first value is read; keys are unquoted
// and matched case-insensitively, with encoding/json's Unicode folding;
// the last of duplicate keys wins; unknown keys' values are checked for
// grammar only; and the whole value is held to the JSON grammar and
// encoding/json's nesting limit. Every malformed shape returns a
// *decodeError (HTTP 400); the decoder never panics — FuzzServeRequest
// hammers exactly this contract, and FuzzDecodeJSONRows holds its verdict
// and values to the oracle. Note JSON cannot express NaN/Inf, so
// continuous values here are always finite; the CSV path below is the one
// that can produce non-finite values.
func decodeJSONRows(body []byte, sc *dataset.Schema, catIndex []map[string]int, maxRows int, buf *reqBuf) error {
	rows := rowsValue{sc: sc, catIndex: catIndex, maxRows: maxRows, flat: &buf.flat}
	row := rows
	row.single = true
	if err := scanEnvelope(body, &rows, &row); err != nil {
		return badReqf("invalid JSON body: %v", err)
	}
	if rows.set && row.set {
		return badReqf(`body sets both "rows" and "row"`)
	}
	src := &rows
	if row.set {
		src = &row
	}
	if src.n == 0 {
		return badReqf(`body has no rows (use "rows" or "row")`)
	}
	if src.n > maxRows {
		return badReqf("%d rows exceeds the per-request limit %d", src.n, maxRows)
	}
	if src.err != nil {
		return src.err
	}
	nattrs := sc.NumAttrs()
	flat := buf.flat[src.base:]
	for r := 0; r < src.n; r++ {
		buf.rows = append(buf.rows, flat[r*nattrs:(r+1)*nattrs:(r+1)*nattrs])
	}
	return nil
}

// maxNestingDepth is encoding/json's limit on nested arrays and objects,
// the body's own object counting as the first level.
const maxNestingDepth = 10000

var errTruncatedJSON = errors.New("unexpected end of JSON input")

// scanEnvelope reads the body's first value, which must be an object, and
// hands the value of every "rows" and "row" key to its scanner; anything
// after the object is ignored, as json.Decoder.Decode ignores it.
func scanEnvelope(data []byte, rows, row *rowsValue) error {
	i := skipSpace(data, 0)
	if i == len(data) {
		return errTruncatedJSON
	}
	if data[i] != '{' {
		return kindError("the body", "an object", data, i)
	}
	if i = skipSpace(data, i+1); i < len(data) && data[i] == '}' {
		return nil
	}
	for {
		key, j, err := objectKey(data, i)
		if err != nil {
			return err
		}
		switch {
		case keyIs(key, "rows"):
			i, err = rows.scan(data, j)
		case keyIs(key, "row"):
			i, err = row.scan(data, j)
		default:
			i, err = skipValue(data, j, 1, false)
		}
		if err != nil {
			return err
		}
		if i = skipSpace(data, i); i == len(data) {
			return errTruncatedJSON
		}
		switch data[i] {
		case '}':
			return nil
		case ',':
			i = skipSpace(data, i+1)
		default:
			return badChar(data, i, "after object key:value pair")
		}
	}
}

// rowsValue scans the value of one body key, "rows" or "row". The envelope
// calls scan once per occurrence of the key and the last occurrence wins,
// so every call starts over. Values are converted straight into the
// request's flat backing (row-major, the dataset.AppendRow convention)
// with no intermediate [][]any; each occurrence appends after whatever is
// already there and remembers where it began.
//
// Two kinds of problem are kept apart, as the reflective decoder kept
// them: a value that [][]any could not hold (rows not an array, a row not
// an array, a number outside float64) is returned, which fails the whole
// body whatever a later duplicate key says; a value that is merely wrong
// for the schema (row length, unknown name, index out of range) is
// remembered in err and judged only if this occurrence is the last. After
// the first such problem the scan goes on, storing nothing, because the
// first kind can still turn up.
type rowsValue struct {
	sc       *dataset.Schema
	catIndex []map[string]int
	maxRows  int
	single   bool       // the value is one row ("row"), not an array of rows
	flat     *[]float64 // the request's flat backing, shared by both keys

	set  bool  // the key's last occurrence was not null
	n    int   // rows in that occurrence
	base int   // where its rows begin in flat, while err is nil
	err  error // its first problem of the second kind
}

// scan reads one occurrence of the key's value, at data[i], and returns
// the index after it.
func (v *rowsValue) scan(data []byte, i int) (int, error) {
	v.set, v.n, v.base, v.err = false, 0, len(*v.flat), nil
	what, depth := `"rows"`, 2 // the body's object is depth 1
	if v.single {
		what = `"row"`
	}
	switch data[i] {
	case 'n': // null: the key is unset again
		return literalEnd(data, i)
	case '[':
	default:
		return i, kindError(what, "an array", data, i)
	}
	v.set = true
	if v.single {
		return v.scanRow(data, i, depth)
	}
	return scanArray(data, i, func(i int) (int, error) {
		switch data[i] {
		case '[':
			return v.scanRow(data, i, depth+1)
		case 'n': // a null row is a row of no values
			i, err := literalEnd(data, i)
			if err == nil {
				_, err = v.scanRow(nullRow, 0, depth+1)
			}
			return i, err
		default:
			return i, kindError(fmt.Sprintf("row %d", v.n), "an array", data, i)
		}
	})
}

var nullRow = []byte("[]")

// scanArray reads the array whose '[' is at data[i] and returns the index
// after its ']'. elem reads the element that starts at data[i] and returns
// the index after it.
func scanArray(data []byte, i int, elem func(i int) (int, error)) (int, error) {
	if i = skipSpace(data, i+1); i < len(data) && data[i] == ']' {
		return i + 1, nil
	}
	for {
		if i == len(data) {
			return i, errTruncatedJSON
		}
		var err error
		if i, err = elem(i); err != nil {
			return i, err
		}
		if i = skipSpace(data, i); i == len(data) {
			return i, errTruncatedJSON
		}
		switch data[i] {
		case ']':
			return i + 1, nil
		case ',':
			i = skipSpace(data, i+1)
		default:
			return i, badChar(data, i, "after array element")
		}
	}
}

// scanRow reads the row whose '[' is at data[i], depth levels deep, and
// returns the index after its ']'. The row is stored while no problem has
// been remembered and the row limit is not passed; it is always counted
// and always checked for numbers outside float64.
func (v *rowsValue) scanRow(data []byte, i, depth int) (int, error) {
	r := v.n
	v.n++
	store := v.err == nil && r < v.maxRows
	nattrs := v.sc.NumAttrs()
	base := len(*v.flat)
	var valErr error
	a := 0
	i, err := scanArray(data, i, func(i int) (next int, err error) {
		if store && valErr == nil && a < nattrs {
			var val float64
			val, next, valErr, err = v.scanValue(data, i, a, depth)
			*v.flat = append(*v.flat, val)
		} else {
			next, err = skipValue(data, i, depth, true)
		}
		a++
		return next, err
	})
	if err != nil || !store {
		return i, err
	}
	if a != nattrs {
		v.err = badReqf("row %d has %d values; schema has %d attributes", r, a, nattrs)
	} else if valErr != nil {
		v.err = valErr
	}
	if v.err != nil {
		*v.flat = (*v.flat)[:base]
	}
	return i, nil
}

// scanValue converts the JSON value at data[i], inside a row depth levels
// deep, to the Table convention for attribute a of row v.n-1: continuous →
// the number itself; categorical → the domain index of a string name, or a
// number that must be an integral in-domain index (out-of-domain numeric
// codes are rejected here, mirroring dataset.AppendRow's validation — the
// majority-branch engine fallback is for values that slip past decoding,
// not a license to accept garbage). bad is a problem with the value for
// this schema; err is one that fails the body (see rowsValue).
func (v *rowsValue) scanValue(data []byte, i, a, depth int) (val float64, next int, bad, err error) {
	attr := &v.sc.Attrs[a]
	wrong := func(format string, args ...any) error {
		return badReqf("row %d attribute %q: %s", v.n-1, attr.Name, fmt.Sprintf(format, args...))
	}
	switch c := data[i]; {
	case c == '"':
		var plain bool
		if next, plain, err = stringEnd(data, i); err != nil {
			return 0, next, nil, err
		}
		if attr.Kind == dataset.Continuous {
			return 0, next, wrong("want a number, got a string"), nil
		}
		idx, ok := 0, false
		if raw := data[i:next]; plain {
			idx, ok = v.catIndex[a][string(raw[1:len(raw)-1])]
		} else {
			// Escapes and non-ASCII take encoding/json's unquoting, invalid
			// UTF-8 replacement included.
			var name string
			if err := json.Unmarshal(raw, &name); err != nil {
				return 0, next, nil, err
			}
			idx, ok = v.catIndex[a][name]
		}
		if !ok {
			return 0, next, wrong("unknown value %s", data[i:next]), nil
		}
		return float64(idx), next, nil, nil
	case c == '-' || isDigit(c):
		if val, next, err = scanNumber(data, i); err != nil {
			return 0, next, nil, err
		}
		if attr.Kind == dataset.Categorical && (val != float64(int(val)) || val < 0 || int(val) >= attr.Cardinality()) {
			return 0, next, wrong("categorical index %v out of range [0,%d)", val, attr.Cardinality()), nil
		}
		return val, next, nil, nil
	default: // true, false, null, an object, an array, or no value at all
		if next, err = skipValue(data, i, depth, true); err != nil {
			return 0, next, nil, err
		}
		if attr.Kind == dataset.Continuous {
			return 0, next, wrong("want a number, got %s", jsonKind(c)), nil
		}
		return 0, next, wrong("want a value name or index, got %s", jsonKind(c)), nil
	}
}

// skipValue steps over the JSON value at data[i], inside containers depth
// levels deep, checking its grammar, and returns the index after it. With
// parse set it also parses every number on the way, because in "rows" one
// outside float64 fails the body wherever it sits; an unknown key's
// numbers are only checked for grammar. Arrays and objects nest up to
// maxNestingDepth without recursion: one bit per level says whether that
// level is an object. A scalar returns before those bits are cleared.
func skipValue(data []byte, i, depth int, parse bool) (int, error) {
	if i < len(data) && data[i] != '{' && data[i] != '[' {
		return skipScalar(data, i, parse)
	}
	var inObject [maxNestingDepth/64 + 1]uint64
	isObject := func(d int) bool { return inObject[d/64]&(1<<(d%64)) != 0 }
	top := depth
	for {
		if i == len(data) {
			return i, errTruncatedJSON
		}
		var err error
		switch c := data[i]; c {
		case '{', '[':
			if depth++; depth > maxNestingDepth {
				return i, fmt.Errorf("nesting deeper than %d levels at offset %d", maxNestingDepth, i)
			}
			inObject[depth/64] &^= 1 << (depth % 64)
			if c == '{' {
				inObject[depth/64] |= 1 << (depth % 64)
			}
			if i = skipSpace(data, i+1); i < len(data) && data[i] == c+2 { // '}' is '{'+2, ']' is '['+2
				i++
				depth--
				break // an empty container is a whole value
			}
			if c == '{' {
				if _, i, err = objectKey(data, i); err != nil {
					return i, err
				}
			}
			continue // its first member's value
		default:
			if i, err = skipScalar(data, i, parse); err != nil {
				return i, err
			}
		}
		// After a value: close containers until one has another member.
		for {
			if depth == top {
				return i, nil
			}
			if i = skipSpace(data, i); i == len(data) {
				return i, errTruncatedJSON
			}
			c, obj := data[i], isObject(depth)
			if c == ',' {
				i = skipSpace(data, i+1)
				if obj {
					if _, i, err = objectKey(data, i); err != nil {
						return i, err
					}
				}
				break
			}
			if obj && c != '}' {
				return i, badChar(data, i, "after object key:value pair")
			}
			if !obj && c != ']' {
				return i, badChar(data, i, "after array element")
			}
			i++
			depth--
		}
	}
}

// skipScalar steps over the string, number or literal at data[i].
func skipScalar(data []byte, i int, parse bool) (int, error) {
	switch c := data[i]; {
	case c == '"':
		next, _, err := stringEnd(data, i)
		return next, err
	case c == '-' || isDigit(c):
		if parse {
			_, next, err := scanNumber(data, i)
			return next, err
		}
		return numberEnd(data, i)
	case c == 't' || c == 'f' || c == 'n':
		return literalEnd(data, i)
	default:
		return i, badChar(data, i, "looking for beginning of value")
	}
}

// objectKey checks the object key at data[i] and the colon after it, and
// returns the key's literal (quotes included) and the index of the
// member's value.
func objectKey(data []byte, i int) (key []byte, next int, err error) {
	if i == len(data) {
		return nil, i, errTruncatedJSON
	}
	if data[i] != '"' {
		return nil, i, badChar(data, i, "looking for beginning of object key string")
	}
	if next, _, err = stringEnd(data, i); err != nil {
		return nil, next, err
	}
	key = data[i:next]
	if next = skipSpace(data, next); next == len(data) {
		return nil, next, errTruncatedJSON
	}
	if data[next] != ':' {
		return nil, next, badChar(data, next, "after object key")
	}
	if next = skipSpace(data, next+1); next == len(data) {
		return nil, next, errTruncatedJSON
	}
	return key, next, nil
}

// stringEnd returns the index after the closing quote of the string whose
// opening quote is at data[i], checking that it holds no control
// character and only JSON's escapes. plain reports that its bytes are its
// value: printable ASCII with no escape.
func stringEnd(data []byte, i int) (next int, plain bool, err error) {
	plain = true
	for i++; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			return i + 1, plain, nil
		case c < 0x20:
			return i, false, badChar(data, i, "in string literal")
		case c >= 0x80:
			plain = false
		case c == '\\':
			plain = false
			if i++; i == len(data) {
				return i, false, errTruncatedJSON
			}
			switch data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					if i++; i == len(data) {
						return i, false, errTruncatedJSON
					}
					if !isHex(data[i]) {
						return i, false, badChar(data, i, `in \u hexadecimal character escape`)
					}
				}
			default:
				return i, false, badChar(data, i, "in string escape code")
			}
		}
	}
	return i, false, errTruncatedJSON
}

// numberEnd returns the end of the number literal at data[i], held to
// JSON's grammar -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, which is
// stricter than strconv.ParseFloat's.
func numberEnd(data []byte, i int) (int, error) {
	if data[i] == '-' {
		i++
	}
	if i == len(data) {
		return i, errTruncatedJSON
	}
	switch c := data[i]; {
	case c == '0':
		i++
	case isDigit(c):
		i = digitsEnd(data, i+1)
	default:
		return i, badChar(data, i, "in numeric literal")
	}
	var err error
	if i < len(data) && data[i] == '.' {
		if i, err = digitsAt(data, i+1); err != nil {
			return i, err
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i, err = digitsAt(data, i); err != nil {
			return i, err
		}
	}
	return i, nil
}

// digitsAt returns the end of the digits at data[i], where at least one
// must be.
func digitsAt(data []byte, i int) (int, error) {
	if i == len(data) {
		return i, errTruncatedJSON
	}
	if !isDigit(data[i]) {
		return i, badChar(data, i, "in numeric literal")
	}
	return digitsEnd(data, i), nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func digitsEnd(data []byte, i int) int {
	for i < len(data) && isDigit(data[i]) {
		i++
	}
	return i
}

// scanNumber parses the number literal at data[i] exactly as encoding/json
// does for an untyped target — strconv.ParseFloat — so values are
// bit-equal and a literal outside float64 (1e999) fails the body.
func scanNumber(data []byte, i int) (float64, int, error) {
	j, err := numberEnd(data, i)
	if err != nil {
		return 0, j, err
	}
	f, err := strconv.ParseFloat(string(data[i:j]), 64)
	if err != nil {
		return 0, j, fmt.Errorf("number %s does not fit a float64", data[i:j])
	}
	return f, j, nil
}

// literalEnd returns the index after the literal true, false or null whose
// first letter is at data[i].
func literalEnd(data []byte, i int) (int, error) {
	lit := "null"
	switch data[i] {
	case 't':
		lit = "true"
	case 'f':
		lit = "false"
	}
	for k := 1; k < len(lit); k++ {
		if i+k == len(data) {
			return i + k, errTruncatedJSON
		}
		if data[i+k] != lit[k] {
			return i + k, badChar(data, i+k, "in literal "+lit)
		}
	}
	return i + len(lit), nil
}

func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\r' || data[i] == '\n') {
		i++
	}
	return i
}

func badChar(data []byte, i int, context string) error {
	return fmt.Errorf("invalid character %q %s at offset %d", data[i], context, i)
}

// kindError is the error for a value at data[i] that is not the kind want
// — or, when no value starts there, the syntax error.
func kindError(what, want string, data []byte, i int) error {
	kind := jsonKind(data[i])
	if kind == "" {
		return badChar(data, i, "looking for beginning of value")
	}
	return fmt.Errorf("%s must be %s, got %s", what, want, kind)
}

// jsonKind names the kind of JSON value that starts with byte c, or
// returns "" if none does.
func jsonKind(c byte) string {
	switch {
	case c == '"':
		return "a string"
	case c == '{':
		return "an object"
	case c == '[':
		return "an array"
	case c == 't' || c == 'f':
		return "a boolean"
	case c == 'n':
		return "null"
	case c == '-' || isDigit(c):
		return "a number"
	default:
		return ""
	}
}

// keyIs reports whether the checked key literal lit names name as
// encoding/json matches a key to a field: unquoted, then compared with
// bytes.EqualFold, so U+017F 'ſ' matches 's'. A key with no escape is its
// own value for the comparison (EqualFold reads invalid UTF-8 as U+FFFD,
// as unquoting would); one with an escape takes encoding/json's unquoting.
func keyIs(lit []byte, name string) bool {
	key := lit[1 : len(lit)-1]
	if bytes.IndexByte(key, '\\') < 0 {
		return bytes.EqualFold(key, []byte(name))
	}
	var s string
	if err := json.Unmarshal(lit, &s); err != nil {
		return false // unreachable: lit is checked
	}
	return strings.EqualFold(s, name)
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// decodeCSVRows parses a text/csv prediction body into buf: a header row
// naming the schema's attributes (no class column — these are unlabeled
// serving rows, unlike dataset.ReadCSV's training format), then one record
// per line. Parsing reuses the schema conventions of dataset/csv.go:
// continuous values via ParseFloat (which admits "NaN"/"Inf" — those are
// served through the engine's majority-branch routing, pinned bit-equal to
// the walker), categorical values by domain name.
func decodeCSVRows(body []byte, sc *dataset.Schema, catIndex []map[string]int, maxRows int, buf *reqBuf) error {
	cr := csv.NewReader(bytes.NewReader(body))
	nattrs := sc.NumAttrs()
	cr.FieldsPerRecord = nattrs
	header, err := cr.Read()
	if err != nil {
		return badReqf("reading CSV header: %v", err)
	}
	for a, attr := range sc.Attrs {
		if header[a] != attr.Name {
			return badReqf("CSV column %d is %q; schema expects %q", a, header[a], attr.Name)
		}
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return badReqf("reading CSV: %v", err)
		}
		if len(buf.rows) >= maxRows {
			return badReqf("more than %d rows in one request", maxRows)
		}
		row := buf.addRow(nattrs)
		for a := range sc.Attrs {
			if sc.Attrs[a].Kind == dataset.Continuous {
				v, err := strconv.ParseFloat(rec[a], 64)
				if err != nil {
					line, _ := cr.FieldPos(a)
					return badReqf("line %d attribute %q: %v", line, sc.Attrs[a].Name, err)
				}
				row[a] = v
			} else {
				idx, ok := catIndex[a][rec[a]]
				if !ok {
					line, _ := cr.FieldPos(a)
					return badReqf("line %d attribute %q: unknown value %q", line, sc.Attrs[a].Name, rec[a])
				}
				row[a] = float64(idx)
			}
		}
	}
	if len(buf.rows) == 0 {
		return badReqf("CSV body has no data rows")
	}
	return nil
}

// buildCatIndex precomputes the per-attribute name→index maps once per
// stored model version (they ride on the cache entry's payload), so the
// request decoders never rebuild them.
func buildCatIndex(sc *dataset.Schema) []map[string]int {
	idx := make([]map[string]int, len(sc.Attrs))
	for a, attr := range sc.Attrs {
		if attr.Kind != dataset.Categorical {
			continue
		}
		m := make(map[string]int, len(attr.Values))
		for i, v := range attr.Values {
			m[v] = i
		}
		idx[a] = m
	}
	return idx
}
