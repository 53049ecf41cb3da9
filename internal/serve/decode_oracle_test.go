package serve

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/dataset"
)

// The reflective JSON decoder this package served with before the
// hand-scanned one, frozen here as the oracle FuzzDecodeJSONRows holds the
// new decoder to. Only the names changed (oracle prefix); the bodies are
// verbatim.

type oracleJSONRequest struct {
	Rows [][]any `json:"rows"`
	Row  []any   `json:"row"`
}

func oracleDecodeJSONRows(body []byte, sc *dataset.Schema, catIndex []map[string]int, maxRows int, buf *reqBuf) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	var req oracleJSONRequest
	if err := dec.Decode(&req); err != nil {
		return badReqf("invalid JSON body: %v", err)
	}
	if req.Rows != nil && req.Row != nil {
		return badReqf(`body sets both "rows" and "row"`)
	}
	rows := req.Rows
	if req.Row != nil {
		rows = [][]any{req.Row}
	}
	if len(rows) == 0 {
		return badReqf(`body has no rows (use "rows" or "row")`)
	}
	if len(rows) > maxRows {
		return badReqf("%d rows exceeds the per-request limit %d", len(rows), maxRows)
	}
	nattrs := sc.NumAttrs()
	for r, in := range rows {
		if len(in) != nattrs {
			return badReqf("row %d has %d values; schema has %d attributes", r, len(in), nattrs)
		}
		row := buf.addRow(nattrs)
		for a, v := range in {
			val, err := oracleConvertJSONValue(v, sc, catIndex, a)
			if err != nil {
				return badReqf("row %d attribute %q: %v", r, sc.Attrs[a].Name, err)
			}
			row[a] = val
		}
	}
	return nil
}

func oracleConvertJSONValue(v any, sc *dataset.Schema, catIndex []map[string]int, a int) (float64, error) {
	attr := &sc.Attrs[a]
	if attr.Kind == dataset.Continuous {
		f, ok := v.(float64)
		if !ok {
			return 0, fmt.Errorf("want a number, got %T", v)
		}
		return f, nil
	}
	switch x := v.(type) {
	case string:
		idx, ok := catIndex[a][x]
		if !ok {
			return 0, fmt.Errorf("unknown value %q", x)
		}
		return float64(idx), nil
	case float64:
		if x != float64(int(x)) || x < 0 || int(x) >= attr.Cardinality() {
			return 0, fmt.Errorf("categorical index %v out of range [0,%d)", x, attr.Cardinality())
		}
		return x, nil
	default:
		return 0, fmt.Errorf("want a value name or index, got %T", v)
	}
}
