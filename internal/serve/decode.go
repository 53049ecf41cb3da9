package serve

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"

	"repro/internal/dataset"
)

// reqBuf is one request's pooled storage: the body bytes, the call the
// batcher queues (rows, the label output slice, completion), the flat
// backing array the rows are chunked out of (the dataset.AppendRow value
// convention), the JSON decoder's state and the reply bytes. Buffers flow through a
// sync.Pool with always-on get/put counters in Stats — the decode-failure
// regression test asserts the balance, so a 400 path that forgets to
// release shows up as a counter gap, not a silent slow leak.
type reqBuf struct {
	body []byte
	call
	flat  []float64
	req   jsonRequest
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

// jsonRequest is the JSON body shape: either "rows" (a group) or "row" (a
// single record), values in schema attribute order. Continuous attributes
// take numbers; categorical attributes take either the domain value's
// string name or its integral index. The envelope — key matching,
// duplicate keys, unknown keys, syntax — is encoding/json's; only the two
// values are scanned by hand (see rowsValue).
type jsonRequest struct {
	Rows rowsValue `json:"rows"`
	Row  rowsValue `json:"row"`
}

// decodeJSONRows parses an application/json prediction body into buf.
// Every malformed shape returns a *decodeError (HTTP 400); the decoder
// never panics — FuzzServeRequest hammers exactly this contract, and
// FuzzDecodeJSONRows holds its verdict and values to the reflective
// decoder it replaced. Note JSON cannot express NaN/Inf, so continuous
// values here are always finite; the CSV path below is the one that can
// produce non-finite values.
func decodeJSONRows(body []byte, sc *dataset.Schema, catIndex []map[string]int, maxRows int, buf *reqBuf) error {
	req := &buf.req
	req.Rows.begin(sc, catIndex, maxRows, false, buf.flat)
	req.Row.begin(sc, catIndex, maxRows, true, req.Row.flat)
	// Like json.Decoder.Decode, read the first value and ignore what
	// follows it.
	err := json.Unmarshal(body[:firstValueEnd(body)], req)
	buf.flat = req.Rows.flat // adopt whatever backing the scan grew
	req.Rows.sc, req.Rows.catIndex, req.Row.sc, req.Row.catIndex = nil, nil, nil, nil
	if err != nil {
		return badReqf("invalid JSON body: %v", err)
	}
	if req.Rows.set && req.Row.set {
		return badReqf(`body sets both "rows" and "row"`)
	}
	src := &req.Rows
	if req.Row.set {
		src = &req.Row
		buf.flat = append(buf.flat[:0], src.flat...)
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
	for r := 0; r < src.n; r++ {
		buf.rows = append(buf.rows, buf.flat[r*nattrs:(r+1)*nattrs:(r+1)*nattrs])
	}
	return nil
}

// firstValueEnd returns the end of body's first JSON value when that value
// is an object, found by bracket matching outside strings; for anything
// else it returns len(body). The prefix is handed to json.Unmarshal, which
// validates it: on a malformed body the match may land anywhere, and every
// landing place is rejected, because the bytes before it already hold the
// syntax error (or the body never closes and is rejected as truncated).
func firstValueEnd(body []byte) int {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return len(body)
	}
	depth := 0
	for i < len(body) {
		switch body[i] {
		case '"':
			i = skipString(body, i)
			continue
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				return i + 1
			}
		}
		i++
	}
	return len(body)
}

// rowsValue is the json.Unmarshaler behind both body keys. encoding/json
// calls it once per occurrence of its key, with bytes it has already
// checked to be valid JSON, and the last occurrence wins — so every call
// starts over. It converts values straight into flat (row-major, the
// dataset.AppendRow convention) with no intermediate [][]any.
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
	single   bool // the value is one row ("row"), not an array of rows

	set  bool      // the key's last occurrence was not null
	n    int       // rows in that occurrence
	flat []float64 // the values of its rows, while err is nil
	err  error     // its first problem of the second kind
}

func (v *rowsValue) begin(sc *dataset.Schema, catIndex []map[string]int, maxRows int, single bool, flat []float64) {
	*v = rowsValue{sc: sc, catIndex: catIndex, maxRows: maxRows, single: single, flat: flat[:0]}
}

var errTruncatedJSON = errors.New("unexpected end of JSON value")

func (v *rowsValue) UnmarshalJSON(data []byte) error {
	v.set, v.n, v.flat, v.err = false, 0, v.flat[:0], nil
	i := skipSpace(data, 0)
	if i == len(data) {
		return errTruncatedJSON
	}
	if data[i] == 'n' { // null: the key is unset again
		return nil
	}
	v.set = true
	what := "rows"
	if v.single {
		what = "row"
	}
	if data[i] != '[' {
		return fmt.Errorf("%q must be an array, got %s", what, jsonKind(data[i]))
	}
	if v.single {
		_, err := v.scanRow(data, i)
		return err
	}
	for i++; ; i++ { // each pass starts after '[' or ','
		i = skipSpace(data, i)
		if i == len(data) {
			return errTruncatedJSON
		}
		var err error
		switch data[i] {
		case ']':
			return nil
		case '[':
			i, err = v.scanRow(data, i)
		case 'n': // a null row is a row of no values
			_, err = v.scanRow(nullRow, 0)
			i += len("null")
		default:
			return fmt.Errorf("row %d must be an array, got %s", v.n, jsonKind(data[i]))
		}
		if err != nil {
			return err
		}
		if i = skipSpace(data, i); i < len(data) && data[i] == ']' {
			return nil
		}
	}
}

var nullRow = []byte("[]")

// scanRow reads the row whose '[' is at data[i] and returns the index
// after its ']'. The row is stored while no problem has been remembered
// and the row limit is not passed; it is always counted and always
// checked for numbers outside float64.
func (v *rowsValue) scanRow(data []byte, i int) (int, error) {
	r := v.n
	v.n++
	store := v.err == nil && r < v.maxRows
	nattrs := v.sc.NumAttrs()
	base := len(v.flat)
	var valErr error
	a := 0
	for i++; ; i++ { // each pass starts after '[' or ','
		i = skipSpace(data, i)
		if i == len(data) {
			return i, errTruncatedJSON
		}
		if data[i] == ']' {
			i++
			break
		}
		var err error
		if store && valErr == nil && a < nattrs {
			var val float64
			val, i, valErr, err = v.scanValue(data, i, a)
			v.flat = append(v.flat, val)
		} else {
			i, err = skipValue(data, i)
		}
		if err != nil {
			return i, err
		}
		a++
		if i = skipSpace(data, i); i < len(data) && data[i] == ']' {
			i++
			break
		}
	}
	if !store {
		return i, nil
	}
	if a != nattrs {
		v.err = badReqf("row %d has %d values; schema has %d attributes", r, a, nattrs)
	} else if valErr != nil {
		v.err = valErr
	}
	if v.err != nil {
		v.flat = v.flat[:base]
	}
	return i, nil
}

// scanValue converts the JSON value at data[i] to the Table convention for
// attribute a of row v.n-1: continuous → the number itself; categorical →
// the domain index of a string name, or a number that must be an integral
// in-domain index (out-of-domain numeric codes are rejected here,
// mirroring dataset.AppendRow's validation — the majority-branch engine
// fallback is for values that slip past decoding, not a license to accept
// garbage). bad is a problem with the value for this schema; err is one
// that fails the body (see rowsValue).
func (v *rowsValue) scanValue(data []byte, i, a int) (val float64, next int, bad, err error) {
	attr := &v.sc.Attrs[a]
	wrong := func(format string, args ...any) error {
		return badReqf("row %d attribute %q: %s", v.n-1, attr.Name, fmt.Sprintf(format, args...))
	}
	switch c := data[i]; {
	case c == '"':
		next = skipString(data, i)
		if attr.Kind == dataset.Continuous {
			return 0, next, wrong("want a number, got a string"), nil
		}
		idx, ok := 0, false
		if raw := data[i:next]; isPlainString(raw) {
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
	case c == '-' || '0' <= c && c <= '9':
		if val, next, err = scanNumber(data, i); err != nil {
			return 0, next, nil, err
		}
		if attr.Kind == dataset.Categorical && (val != float64(int(val)) || val < 0 || int(val) >= attr.Cardinality()) {
			return 0, next, wrong("categorical index %v out of range [0,%d)", val, attr.Cardinality()), nil
		}
		return val, next, nil, nil
	default: // true, false, null, an object or an array
		if next, err = skipValue(data, i); err != nil {
			return 0, next, nil, err
		}
		if attr.Kind == dataset.Continuous {
			return 0, next, wrong("want a number, got %s", jsonKind(c)), nil
		}
		return 0, next, wrong("want a value name or index, got %s", jsonKind(c)), nil
	}
}

// numberByte marks the bytes a JSON number literal is made of.
var numberByte = func() (t [256]bool) {
	for _, c := range "0123456789+-.eE" {
		t[c] = true
	}
	return t
}()

// scanNumber parses the number literal at data[i] exactly as encoding/json
// does for an untyped target — strconv.ParseFloat — so values are
// bit-equal and a literal outside float64 (1e999) fails the body.
func scanNumber(data []byte, i int) (float64, int, error) {
	j := i
	for j < len(data) && numberByte[data[j]] {
		j++
	}
	f, err := strconv.ParseFloat(string(data[i:j]), 64)
	if err != nil {
		return 0, j, fmt.Errorf("number %s does not fit a float64", data[i:j])
	}
	return f, j, nil
}

// skipValue steps over the JSON value at data[i] — any value, nested to
// any depth — and returns the index after it. It still parses every
// number on the way, because one outside float64 fails the body wherever
// in "rows" it sits.
func skipValue(data []byte, i int) (int, error) {
	for depth := 0; i < len(data); {
		switch c := data[i]; {
		case c == '"':
			i = skipString(data, i)
		case c == '{' || c == '[':
			depth++
			i++
		case c == '}' || c == ']':
			depth--
			i++
		case c == '-' || '0' <= c && c <= '9':
			var err error
			if _, i, err = scanNumber(data, i); err != nil {
				return i, err
			}
		case 'a' <= c && c <= 'z': // true, false, null
			for i < len(data) && 'a' <= data[i] && data[i] <= 'z' {
				i++
			}
		default: // white space, ':' and ',' inside a nested value
			i++
			continue
		}
		if depth <= 0 {
			return i, nil
		}
	}
	return i, errTruncatedJSON
}

// skipString returns the index after the closing quote of the string whose
// opening quote is at data[i] (len(data) if it never closes).
func skipString(data []byte, i int) int {
	for i++; i < len(data); i++ {
		switch data[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return len(data)
}

// isPlainString reports whether the quoted string's bytes are its value:
// printable ASCII with no escape. Anything else needs real unquoting.
func isPlainString(quoted []byte) bool {
	for _, c := range quoted[1 : len(quoted)-1] {
		if c < 0x20 || c >= 0x80 || c == '\\' {
			return false
		}
	}
	return true
}

func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\r' || data[i] == '\n') {
		i++
	}
	return i
}

// jsonKind names the kind of JSON value that starts with byte c.
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
	default:
		return "a number"
	}
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
