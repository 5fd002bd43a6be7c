package bench

import (
	"context"
	"testing"

	"wasmdb"
)

func TestAnswerOrderSensitivity(t *testing.T) {
	rows := [][]string{{"1", "a"}, {"2", "b"}, {"3", "c"}}
	swapped := [][]string{{"3", "c"}, {"1", "a"}, {"2", "b"}}
	if NewAnswer(rows, false) != NewAnswer(swapped, false) {
		t.Error("unordered answers differ under a row permutation")
	}
	if NewAnswer(rows, true) == NewAnswer(swapped, true) {
		t.Error("ordered answers ignore row order")
	}
	// Cell boundaries count: ("1","2a") is not ("12","a").
	if NewAnswer([][]string{{"1", "2a"}}, true) == NewAnswer([][]string{{"12", "a"}}, true) {
		t.Error("answers ignore cell boundaries")
	}
}

// smallDB holds 200 events rows loaded through the public API.
func smallDB(t *testing.T) (*wasmdb.DB, []Event) {
	t.Helper()
	db := wasmdb.Open()
	if err := db.Exec(EventsDDL); err != nil {
		t.Fatal(err)
	}
	rows := NewEventGen(3).Next(200)
	if err := db.Exec(InsertSQL(rows)); err != nil {
		t.Fatal(err)
	}
	return db, rows
}

func TestOracleCatchesPerturbedRow(t *testing.T) {
	db, _ := smallDB(t)
	const q = "SELECT e_kind, COUNT(*), SUM(e_amount) FROM events GROUP BY e_kind"
	ref, err := db.Query(q, wasmdb.WithBackend(wasmdb.BackendVolcano))
	if err != nil {
		t.Fatal(err)
	}
	o := Oracle{RefKey("k", nil): ResultAnswer(ref, false)}
	got, err := db.Query(q) // the Wasm path, any row order
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Check(RefKey("k", nil), ResultAnswer(got, false)); err != nil {
		t.Fatalf("correct result rejected: %v", err)
	}
	rows := make([][]string, got.NumRows())
	for i := range rows {
		rows[i] = got.Row(i)
	}
	rows[len(rows)/2][2] += "1" // one wrong sum
	if err := o.Check(RefKey("k", nil), NewAnswer(rows, false)); err == nil {
		t.Fatal("perturbed row accepted")
	}
	if err := o.Check(RefKey("k", nil), NewAnswer(rows[1:], false)); err == nil {
		t.Fatal("missing row accepted")
	}
}

func TestEventsModelMatchesTheDatabase(t *testing.T) {
	db, rows := smallDB(t)
	for _, c := range []struct {
		kind, sql string
		args      []any
		match     func(Event) bool
	}{
		{KindEventsUser, "SELECT COUNT(*), SUM(e_amount) FROM events WHERE e_user = ?", []any{5},
			func(e Event) bool { return e.User == 5 }},
		{KindEventsKind, "SELECT e_kind, COUNT(*), SUM(e_amount) FROM events WHERE e_id >= ? GROUP BY e_kind", []any{120},
			func(e Event) bool { return e.ID >= 120 }},
	} {
		st, err := db.Prepare(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		res, err := st.QueryContext(context.Background(), c.args)
		if err != nil {
			t.Fatal(err)
		}
		want, err := WireAnswer(res, c.kind == KindEventsUser)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EventsAnswer(c.kind, c.args, rows)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: model disagrees with the database", c.kind)
		}
		perturbed := append([]Event(nil), rows...)
		for i := range perturbed {
			if c.match(perturbed[i]) {
				perturbed[i].Amount++
				break
			}
		}
		if bad, _ := EventsAnswer(c.kind, c.args, perturbed); bad == want {
			t.Errorf("%s: a perturbed model row went unnoticed", c.kind)
		}
	}
}
