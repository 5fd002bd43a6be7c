package bench

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"wasmdb"
)

// Answer is the canonical form of a result set: its row count and a digest
// of its rows, each rendered cell by cell. Unordered answers sort the
// rendered rows before hashing, so any row order compares equal.
type Answer struct {
	Rows   int
	Digest [32]byte
}

// NewAnswer canonicalizes rendered rows.
func NewAnswer(rows [][]string, ordered bool) Answer {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = strings.Join(r, "\x1f")
	}
	if !ordered {
		sort.Strings(lines)
	}
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\x1e'})
	}
	a := Answer{Rows: len(rows)}
	copy(a.Digest[:], h.Sum(nil))
	return a
}

// ResultAnswer canonicalizes an in-process result through Result.Row, the
// rendering every backend shares.
func ResultAnswer(r *wasmdb.Result, ordered bool) Answer {
	rows := make([][]string, r.NumRows())
	for i := range rows {
		rows[i] = r.Row(i)
	}
	return NewAnswer(rows, ordered)
}

// WireAnswer canonicalizes an in-process result the way the query service
// puts it on the wire: each cell is the JSON encoding of Result.Value.
func WireAnswer(r *wasmdb.Result, ordered bool) (Answer, error) {
	rows := make([][]string, r.NumRows())
	for i := range rows {
		rows[i] = make([]string, len(r.Columns))
		for c := range r.Columns {
			b, err := json.Marshal(r.Value(i, c))
			if err != nil {
				return Answer{}, err
			}
			rows[i][c] = string(b)
		}
	}
	return NewAnswer(rows, ordered), nil
}

// RawAnswer canonicalizes rows decoded from a service response, whose cells
// are kept as the raw JSON the server wrote.
func RawAnswer(rows [][]json.RawMessage, ordered bool) Answer {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = make([]string, len(r))
		for c, cell := range r {
			out[i][c] = string(cell)
		}
	}
	return NewAnswer(out, ordered)
}

// Oracle holds the reference answer of every distinct read a workload
// issues, keyed by RefKey.
type Oracle map[string]Answer

// RefKey identifies one read: its kind and bound arguments.
func RefKey(kind string, args []any) string {
	return fmt.Sprintf("%s%v", kind, args)
}

// Check compares an answer against the reference for key.
func (o Oracle) Check(key string, got Answer) error {
	want, ok := o[key]
	if !ok {
		return fmt.Errorf("no reference for %s", key)
	}
	if got != want {
		return fmt.Errorf("wrong result for %s: %d rows, want %d (digest mismatch)", key, got.Rows, want.Rows)
	}
	return nil
}
