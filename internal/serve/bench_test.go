package serve

import (
	"bytes"
	"net/http"
	"testing"

	"repro/internal/dataset"
)

// benchFixture is a server with one hot model plus a JSON body of n rows
// drawn from the model's own training table.
func benchFixture(b *testing.B, n int) (*Server, []byte) {
	b.Helper()
	s := New(Config{})
	b.Cleanup(s.Close)
	tr, tab := trainTree(b, 1, 4000, 0.1)
	if _, err := s.SetModel("m", tr); err != nil {
		b.Fatal(err)
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = tab.Row(i)
	}
	return s, jsonBody(b, rows)
}

// nullWriter is the cheapest http.ResponseWriter: it keeps the status and
// counts the body bytes, so the handler benchmarks time the server's own
// work and not a recorder's buffer growth.
type nullWriter struct {
	header http.Header
	status int
	n      int
}

func (w *nullWriter) Header() http.Header         { return w.header }
func (w *nullWriter) WriteHeader(status int)      { w.status = status }
func (w *nullWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// benchHandler times one whole Handler.ServeHTTP call — body read, decode,
// queue, kernel, scatter, reply encode — with no socket in the way.
func benchHandler(b *testing.B, n int) {
	s, body := benchFixture(b, n)
	h := s.Handler()
	w := &nullWriter{header: http.Header{}}
	rd := bytes.NewReader(body)
	req, err := http.NewRequest(http.MethodPost, "/predict/m", rd)
	if err != nil {
		b.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		w.status = http.StatusOK
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
}

func BenchmarkHandler1(b *testing.B)   { benchHandler(b, 1) }
func BenchmarkHandler256(b *testing.B) { benchHandler(b, 256) }

// benchDecodeJSON times one JSON row decoder alone on the bulk workload's
// body shape (256 rows x 7 attributes, about 27 kB).
func benchDecodeJSON(b *testing.B, decode func([]byte, *dataset.Schema, []map[string]int, int, *reqBuf) error) {
	s, body := benchFixture(b, 256)
	f, _, _ := s.Model("m")
	catIndex := buildCatIndex(f.Schema)
	buf := &reqBuf{}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.flat, buf.rows = buf.flat[:0], buf.rows[:0]
		if err := decode(body, f.Schema, catIndex, 4096, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeJSON256 is the server's decoder; the Oracle variant is the
// reflective one it replaced, kept beside it so the before/after is one
// command on any host.
func BenchmarkDecodeJSON256(b *testing.B)       { benchDecodeJSON(b, decodeJSONRows) }
func BenchmarkDecodeJSON256Oracle(b *testing.B) { benchDecodeJSON(b, oracleDecodeJSONRows) }
