package dataset

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"
)

// FuzzReadCSV feeds arbitrary bytes to the CSV reader under the standard test
// schema. ReadCSV's contract: it returns an error or a schema-consistent
// table, never panics, and allocates in proportion to its input. A
// successfully parsed table must also survive a write/read round trip
// unchanged.
//
// The allocation bound is 64 KiB plus 256 bytes per input byte. Measured on
// an x86-64 Linux host: every seed allocates 4.6–6.3 KB, nearly all of it
// the fixed read buffer; the costliest shape found by hand, a header line
// of 60 000 commas (one empty string field per byte), allocates 156 bytes
// per byte.
func FuzzReadCSV(f *testing.F) {
	seeds := []string{
		// Well-formed files.
		"salary,age,elevel,class\n1,30,hs,A\n2,40,grad,B\n",
		"salary,age,elevel,class\n",
		"salary,age,elevel,class\r\n1.5e2,-0,none,B\r\n",
		"salary,age,elevel,class\nNaN,+Inf,college,A\n",
		// Every rejection path the unit tests pin.
		"salary,age,wrong,class\n1,2,none,A\n",
		"salary,age,elevel,label\n",
		"salary,age,elevel,class\nabc,30,hs,A\n",
		"salary,age,elevel,class\n1,30,phd,A\n",
		"salary,age,elevel,class\n1,30,hs,C\n",
		"salary,age,elevel,class\n1,30,hs,A\n2,40\n",
		// Quoted fields spanning physical lines, stray quotes, empties.
		"salary,age,elevel,class\n1,30,\"h\ns\",A\n2,40,el,C\n",
		"salary,age,elevel,class\n1,30,\"hs,A\n",
		"\"salary\",\"age\",\"elevel\",\"class\"\n1,30,hs,A\n",
		"",
		"\n",
		"\x00",
		"salary,age,elevel,class\n1e309,30,hs,A\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s := twoClassSchema()
		var tab *Table
		var err error
		if got, limit := allocatedBy(func() { tab, err = ReadCSV(bytes.NewReader(data), s) }), uint64(64<<10+256*len(data)); got > limit {
			t.Fatalf("reading %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		if err != nil {
			if tab != nil {
				t.Fatalf("ReadCSV returned both a table and error %v", err)
			}
			return
		}
		n := tab.NumRows()
		if len(tab.Class) != n {
			t.Fatalf("class list holds %d labels for %d rows", len(tab.Class), n)
		}
		for r := 0; r < n; r++ {
			if int(tab.Class[r]) >= len(s.Classes) {
				t.Fatalf("row %d: class index %d out of range", r, tab.Class[r])
			}
			for a, attr := range s.Attrs {
				if attr.Kind != Categorical {
					continue
				}
				if v := tab.Value(a, r); v != math.Trunc(v) || v < 0 || int(v) >= len(attr.Values) {
					t.Fatalf("row %d: categorical %s value %v out of domain", r, attr.Name, v)
				}
			}
		}

		var buf bytes.Buffer
		if err := WriteCSV(&buf, tab); err != nil {
			t.Fatalf("re-encoding parsed table: %v", err)
		}
		back, err := ReadCSV(strings.NewReader(buf.String()), s)
		if err != nil {
			t.Fatalf("re-reading encoded table: %v", err)
		}
		if back.NumRows() != n {
			t.Fatalf("round trip changed row count: %d != %d", back.NumRows(), n)
		}
		for r := 0; r < n; r++ {
			if back.Class[r] != tab.Class[r] {
				t.Fatalf("round trip changed row %d's class", r)
			}
			for a := range s.Attrs {
				got, want := back.Value(a, r), tab.Value(a, r)
				if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("round trip changed row %d attr %d: %v != %v", r, a, got, want)
				}
			}
		}
	})
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
