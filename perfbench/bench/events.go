package bench

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// The events table is the service workload's write target: an append-only
// log the benchmark inserts into and models itself, so reads over it are
// checked against the benchmark's own copy of the rows.
const (
	EventsDDL = "CREATE TABLE events (e_id BIGINT, e_user INT, e_kind INT, e_amount BIGINT)"
	// EventUsers and EventKinds bound the value domains; InitialEvents
	// rows are loaded at set-up so that every user has rows from the start.
	EventUsers    = 64
	EventKinds    = 8
	InitialEvents = 20000
	// EventBatch is the number of rows one INSERT carries.
	EventBatch = 10
)

// Event is one row of the events table.
type Event struct {
	ID     int64
	User   int32
	Kind   int32
	Amount int64
}

// EventGen draws event rows from a seeded source; IDs are consecutive.
type EventGen struct {
	rng    *rand.Rand
	nextID int64
}

// NewEventGen starts a generator whose first row has ID 0.
func NewEventGen(seed int64) *EventGen {
	return &EventGen{rng: rand.New(rand.NewSource(seed))}
}

// Next returns the next n rows.
func (g *EventGen) Next(n int) []Event {
	out := make([]Event, n)
	for i := range out {
		out[i] = Event{
			ID:     g.nextID,
			User:   int32(g.rng.Intn(EventUsers)),
			Kind:   int32(g.rng.Intn(EventKinds)),
			Amount: int64(g.rng.Intn(1000)),
		}
		g.nextID++
	}
	return out
}

// InsertSQL renders rows as one multi-row INSERT.
func InsertSQL(rows []Event) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO events VALUES ")
	for i, e := range rows {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d, %d)", e.ID, e.User, e.Kind, e.Amount)
	}
	return sb.String()
}

// Read kinds over the events table.
const (
	KindEventsUser = "events_user"
	KindEventsKind = "events_kind"
)

// EventsAnswer evaluates an events read on the model rows, rendered the
// way Result.Row and the service's JSON both render integers.
func EventsAnswer(kind string, args []any, rows []Event) (Answer, error) {
	itoa := func(v int64) string { return strconv.FormatInt(v, 10) }
	switch kind {
	case KindEventsUser:
		user, ok := args[0].(int)
		if !ok {
			return Answer{}, fmt.Errorf("events_user: bad bind %v", args)
		}
		var n, sum int64
		for _, e := range rows {
			if e.User == int32(user) {
				n++
				sum += e.Amount
			}
		}
		return NewAnswer([][]string{{itoa(n), itoa(sum)}}, true), nil
	case KindEventsKind:
		from, ok := args[0].(int)
		if !ok {
			return Answer{}, fmt.Errorf("events_kind: bad bind %v", args)
		}
		var n, sum [EventKinds]int64
		for _, e := range rows {
			if e.ID >= int64(from) {
				n[e.Kind]++
				sum[e.Kind] += e.Amount
			}
		}
		var out [][]string
		for k := range n {
			if n[k] > 0 {
				out = append(out, []string{itoa(int64(k)), itoa(n[k]), itoa(sum[k])})
			}
		}
		return NewAnswer(out, false), nil
	}
	return Answer{}, fmt.Errorf("not an events read: %s", kind)
}
