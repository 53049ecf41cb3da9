package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// predictResponse is /predict's reply as a client decodes it, and the
// struct whose json.Encoder rendering appendReply must reproduce byte for
// byte (it is what the server encoded reflectively before).
type predictResponse struct {
	Model   string   `json:"model"`
	Version int      `json:"version"`
	Indices []int    `json:"indices"`
	Classes []string `json:"classes"`
}

// decodeFuzzSchema has what the JSON decoder branches on: a continuous
// attribute either side of a categorical one whose value names need every
// kind of unquoting — escapes, non-ASCII, the replacement character that
// invalid UTF-8 decodes to, an empty name.
var decodeFuzzSchema = &dataset.Schema{
	Attrs: []dataset.Attribute{
		{Name: "x", Kind: dataset.Continuous},
		{Name: "g", Kind: dataset.Categorical, Values: []string{"a", "é", "\ufffd", `q"t`, "<b>", "", "tab\t", "\U0001F600"}},
		{Name: "y", Kind: dataset.Continuous},
	},
	Classes: []string{"no", "yes"},
}

const decodeFuzzMaxRows = 8

// FuzzDecodeJSONRows holds the hand-scanned decoder to the reflective one
// it replaced (decode_oracle_test.go): for every body the same accept or
// reject verdict, and on accept the same rows, bit for bit. The new
// decoder runs twice, on a fresh buffer and on one reused across the whole
// fuzz run, so state surviving from an earlier body shows as a mismatch.
//
// On a fresh buffer it must also allocate in proportion to the body: at
// most 64 KiB plus 32 bytes per body byte, the least of three runs (server
// goroutines of earlier tests may still allocate beside it). Measured on an
// x86-64 Linux host: the seeds allocate 0.9–2.7 KB each; the costliest shape
// found by hand, one 3 000-character non-ASCII value name, 5.3 bytes per
// byte.
func FuzzDecodeJSONRows(f *testing.F) {
	for _, seed := range []string{
		`{"rows": [[1,"a",2]]}`,
		`{"row": [1,"a",2]}`,
		`{"rows": [[1,0,2],[3,7,4.5e-3]]}`,
		// Duplicate keys: the last one wins, whatever the earlier one held.
		`{"rows": [[1,"nope",2]], "rows": [[1,"a",2]]}`,
		`{"rows": [[1,"a",2]], "rows": [["x"]]}`,
		`{"rows": [[1,"a",2]], "rows": null}`,
		`{"rows": [[1,"a",2]], "rows": null, "row": [5,"a",6]}`,
		`{"row": [1,"a",2], "rows": [[9,"a",9]], "row": null}`,
		`{"rows": [[1,"a",2]], "row": [5,"a",6], "rows": null}`,
		// ...except for what [][]any cannot hold, which fails the body for good.
		`{"rows": 5, "rows": [[1,"a",2]]}`,
		`{"rows": [[1,"a",1e999]], "rows": [[1,"a",2]]}`,
		`{"rows": [["bad",{"deep":[1e999]},2]], "rows": [[1,"a",2]]}`,
		`{"rows": [[1,"a",2],[1,"a",2],[1,"a",2],[1,"a",2],[1,"a",2],[1,"a",2],[1,"a",2],[1,"a",2],[1,"a",2],7], "rows": [[1,"a",2]]}`,
		// encoding/json matches keys case-insensitively, with Unicode folding.
		`{"ROWS": [[1,"a",2]]}`,
		`{"Row": [1,"a",2]}`,
		"{\"row\u017f\": [[1,\"a\",2]]}",
		`{"rows": null}`,
		`{"rows": [[1,"a",2]], "row": [1,"a",2]}`,
		`{"rows": [], "row": [1,"a",2]}`,
		// Decoder.Decode reads one value and ignores what follows it.
		`{"rows": [[1,"a",2]]} trailing garbage ]}`,
		`{"rows": [[1,"a",2]]}{"rows": 5}`,
		` {"rows": [[1,"a",2]]}]`,
		`{"rows": [[1,"a",2]]]}`,
		`null`,
		`null x`,
		`5`,
		`[[1,"a",2]]`,
		`"rows"`,
		``,
		`{`,
		`{"rows": [[1,"a",2]`,
		`{"rows": "[[1,2,3]]"}`,
		`{"rows": {"0": [1,"a",2]}}`,
		// Names: escapes, non-ASCII, invalid UTF-8 (decodes to U+FFFD), lone surrogates.
		`{"rows": [[1,"\u0061",2],[1,"\u00e9",2],[1,"é",2],[1,"q\"t",2],[1,"\u003cb\u003e",2],[1,"",2],[1,"tab\t",2]]}`,
		"{\"rows\": [[1,\"\xff\",2]]}",
		"{\"rows\": [[1,\"\xc3\",2]]}",
		`{"rows": [[1,"\ud800",2]]}`,
		`{"rows": [[1,"\ud83d\ude00",2]]}`,
		`{"rows": [[1,"A",2]]}`,
		"{\"rows\": [[1,\"tab\t\",2]]}",
		// Numbers.
		`{"rows": [[1e999,"a",2]]}`,
		`{"rows": [[-1e999,"a",2]]}`,
		`{"rows": [[1e-999,"a",-0]]}`,
		`{"rows": [[-0,"a",0.1e1]]}`,
		`{"rows": [[1,1.0,2],[1,7,2],[1,8,2],[1,-1,2],[1,-0,2],[1,1.5,2],[1,1e400,2]]}`,
		`{"rows": [[123456789012345678901234567890123456789012345678901234567890,"a",0.000000000000000000000000000000000001]]}`,
		`{"rows": [[01,"a",2]]}`,
		`{"rows": [[+1,"a",2]]}`,
		`{"rows": [[.5,"a",2]]}`,
		// Shapes.
		`{"rows": []}`,
		`{"rows": [[]]}`,
		`{"rows": [null]}`,
		`{"rows": [[1,"a",2],null]}`,
		`{"row": []}`,
		`{"rows": [[1,"a"]]}`,
		`{"rows": [[1,"a",2,3]]}`,
		`{"rows": [[[1],"a",2]]}`,
		`{"rows": [[1,["a"],2]]}`,
		`{"rows": [[1,{"a":1},2]]}`,
		`{"rows": [[true,"a",2]]}`,
		`{"rows": [[1,false,2]]}`,
		`{"rows": [[1,null,2]]}`,
		`{"rows": [[null,"a",2]]}`,
		`{"rows": [["1","a",2]]}`,
		`{"rows": [1,2,3]}`,
		`{"rows": [[1,"a",2],7]}`,
		`{"rows": [[1,"a",2],"x"]}`,
		`{"rows":[[1,"a",2],[1,"a",2],[1,"a",2],[1,"a",2],[1,"a",2],[1,"a",2],[1,"a",2],[1,"a",2]]}`,
		`{"rows":[[1,"a",2],[1,"a",2],[1,"a",2],[1,"a",2],[1,"a",2],[1,"a",2],[1,"a",2],[1,"a",2],[1,"a",2]]}`,
		`{"rows":[[1,"zz",2],[1,"a",2],[1,"a",2],[1,"a",2],[1,"a",2],[1,"a",2],[1,"a",2],[1,"a",2],[1,"a",2]]}`,
		"{ \"rows\" :\t[\r\n [ 1 , \"a\" , 2 ] , [ 3 , \"a\" , 4 ] ] , \"other\" : { \"rows\" : 1e999 } }",
		`{"other": 1e999, "rows": [[1,"a",2]]}`,
	} {
		f.Add([]byte(seed))
	}

	sc, catIndex := decodeFuzzSchema, buildCatIndex(decodeFuzzSchema)
	reused := &reqBuf{}
	f.Fuzz(func(t *testing.T, body []byte) {
		if got, limit := allocatedBy(func() { _ = decodeJSONRows(body, sc, catIndex, decodeFuzzMaxRows, &reqBuf{}) }), uint64(64<<10+32*len(body)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(body), got, limit)
		}
		want := &reqBuf{}
		wantErr := oracleDecodeJSONRows(body, sc, catIndex, decodeFuzzMaxRows, want)

		reused.flat, reused.rows = reused.flat[:0], reused.rows[:0] // as putBuf leaves it
		for name, got := range map[string]*reqBuf{"fresh buffer": {}, "reused buffer": reused} {
			err := decodeJSONRows(body, sc, catIndex, decodeFuzzMaxRows, got)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s: body %q: new decoder says %v, the oracle says %v", name, body, err, wantErr)
			}
			if err != nil {
				if _, ok := err.(*decodeError); !ok {
					t.Fatalf("%s: body %q: error %v is a %T, want *decodeError (HTTP 400)", name, body, err, err)
				}
				continue
			}
			if len(got.rows) != len(want.rows) {
				t.Fatalf("%s: body %q: %d rows, the oracle has %d", name, body, len(got.rows), len(want.rows))
			}
			for r := range want.rows {
				if len(got.rows[r]) != len(want.rows[r]) {
					t.Fatalf("%s: body %q: row %d has %d values, the oracle has %d", name, body, r, len(got.rows[r]), len(want.rows[r]))
				}
				for a := range want.rows[r] {
					if math.Float64bits(got.rows[r][a]) != math.Float64bits(want.rows[r][a]) {
						t.Fatalf("%s: body %q: row %d attribute %d = %v, the oracle has %v", name, body, r, a, got.rows[r][a], want.rows[r][a])
					}
				}
			}
		}
	})
}

// TestDecodeJSONRowsAllocs: decoding the bulk body shape into a warm
// buffer allocates nothing: the one pass keeps its state on the stack and
// writes into the buffer's flat backing and row slices.
func TestDecodeJSONRowsAllocs(t *testing.T) {
	sc, catIndex := decodeFuzzSchema, buildCatIndex(decodeFuzzSchema)
	var sb strings.Builder
	sb.WriteString(`{"rows": [`)
	for r := 0; r < 256; r++ {
		if r > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`[3.25,"a",-17]`)
	}
	sb.WriteString(`]}`)
	body := []byte(sb.String())
	buf := &reqBuf{}
	allocs := testing.AllocsPerRun(50, func() {
		buf.flat, buf.rows = buf.flat[:0], buf.rows[:0]
		if err := decodeJSONRows(body, sc, catIndex, 4096, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations for a 256-row body, want 0", allocs)
	}
}

// TestReplyMatchesEncoder: the reply assembled from pre-encoded fragments
// is byte-equal to json.Encoder's rendering of the same fields, for the
// names an encoder escapes: HTML characters, quotes, control characters,
// U+2028/U+2029, other non-ASCII and invalid UTF-8 — in the class names
// and in the model name.
func TestReplyMatchesEncoder(t *testing.T) {
	classes := []string{"plain", "<script>", "a&b", `say "hi"`, "line\u2028sep", "para\u2029sep", "é", "日本語", "\U0001F600", "bad\xffutf8", "tab\tnl\n", "\x00", "back\\slash", ""}
	sc := &dataset.Schema{Attrs: []dataset.Attribute{{Name: "x", Kind: dataset.Continuous}}, Classes: classes}
	for _, name := range []string{"quest", `<m&"odel">`, "mod\u2028el\xfe", ""} {
		sv := newServed(nil, name, sc)
		for _, indices := range [][]int{{0}, {3}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, {13, 13, 0}} {
			for _, version := range []int{1, 12345} {
				want := predictResponse{Model: name, Version: version, Indices: indices}
				for _, c := range indices {
					want.Classes = append(want.Classes, classes[c])
				}
				var enc bytes.Buffer
				if err := json.NewEncoder(&enc).Encode(want); err != nil {
					t.Fatal(err)
				}
				if got := sv.appendReply(nil, version, indices); !bytes.Equal(got, enc.Bytes()) {
					t.Fatalf("model %q version %d indices %v:\n got %q\nwant %q", name, version, indices, got, enc.Bytes())
				}
			}
		}
	}
}

// TestContentTypeRouting: text/csv is recognised in every spelling of the
// media type, with or without parameters, on /predict and on /models;
// anything else, no header included, is JSON.
func TestContentTypeRouting(t *testing.T) {
	s := New(Config{})
	t.Cleanup(s.Close)
	tr, tab := trainTree(t, 1, 600, 0)
	if _, err := s.SetModel("m", tr); err != nil {
		t.Fatal(err)
	}
	rows := [][]float64{tab.Row(0), tab.Row(1)}
	csvRows, jsonRows := csvBody(t, tr.Schema, rows), jsonBody(t, rows)
	var train bytes.Buffer
	if err := dataset.WriteCSV(&train, tab); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		contentType string
		csv         bool
	}{
		{"text/csv", true},
		{"text/csv; charset=utf-8", true},
		{"text/csv;charset=utf-8", true},
		{"text/csv; charset=UTF-8", true},
		{"Text/CSV", true},
		{"TEXT/CSV ; header=present", true},
		{"application/json", false},
		{"application/json; charset=utf-8", false},
		{"text/plain", false},
		{"", false},
	} {
		post := func(path string, body []byte) int {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			if tc.contentType != "" {
				req.Header.Set("Content-Type", tc.contentType)
			}
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			return rec.Code
		}
		// The body in the declared format is served; the other format's
		// body is refused as malformed, so the routing is what decided.
		good, bad := jsonRows, csvRows
		if tc.csv {
			good, bad = csvRows, jsonRows
		}
		if code := post("/predict/m", good); code != http.StatusOK {
			t.Errorf("Content-Type %q: /predict answered %d to a body in that format", tc.contentType, code)
		}
		if code := post("/predict/m", bad); code != http.StatusBadRequest {
			t.Errorf("Content-Type %q: /predict answered %d to a body in the other format, want 400", tc.contentType, code)
		}
		// /models: a CSV body retrains, and is not valid model JSON.
		want := http.StatusBadRequest
		if tc.csv {
			want = http.StatusOK
		}
		if code := post("/models/m", train.Bytes()); code != want {
			t.Errorf("Content-Type %q: /models answered %d to a training CSV, want %d", tc.contentType, code, want)
		}
	}
}

// allocatedBy reports the heap bytes fn allocates, the least over three
// calls: the counter is process-wide, so a call can also be charged for
// another goroutine's allocations (the runtime's, or a parallel test's
// when go test runs the seeds). fn must be safe to repeat.
func allocatedBy(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
