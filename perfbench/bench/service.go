package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"time"

	"wasmdb"
	"wasmdb/internal/server"
)

// ServiceSpec is the open-loop read/write workload against the query
// service.
type ServiceSpec struct {
	Name  string
	Why   string
	Scale float64
	// Rate is the fixed offered arrival rate, in requests per second.
	Rate float64
	// WriteFrac is the share of requests that are INSERT batches.
	WriteFrac float64
	// PoolSize is the number of distinct seeded binds per read kind; each
	// distinct read has its reference computed at set-up.
	PoolSize int
	Reads    []ReadKind
	// Settings are the session options (as /v1/set takes them) every
	// session applies, in order.
	Settings [][2]string
}

// ReadKind is one prepared read of the service mix.
type ReadKind struct {
	Kind
	// Weight is the kind's share of the reads.
	Weight int
	// Bind draws one argument tuple.
	Bind func(rng *rand.Rand) []any
}

// Service is the service-mix workload.
var Service = &ServiceSpec{
	Name: "service-mix",
	Why: "open loop of short prepared reads and INSERT batches over loopback HTTP with " +
		"backend auto: per-query fixed costs, admission, plan-cache hits, the autopilot and writes",
	Scale:     0.01,
	Rate:      120,
	WriteFrac: 0.1,
	PoolSize:  32,
	Settings:  [][2]string{{"backend", "auto"}},
	Reads: []ReadKind{
		{Kind: Kind{Name: "orders_point", SQL: "SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate FROM orders WHERE o_orderkey = ?"},
			Weight: 25, Bind: func(r *rand.Rand) []any { return []any{1 + r.Intn(15000)} }},
		{Kind: Kind{Name: "orders_cust", SQL: "SELECT o_orderkey, o_totalprice, o_orderstatus FROM orders WHERE o_custkey = ?"},
			Weight: 20, Bind: func(r *rand.Rand) []any { return []any{1 + r.Intn(1500)} }},
		{Kind: Kind{Name: "part_limit", SQL: "SELECT p_partkey, p_name, p_retailprice FROM part LIMIT ?"},
			Weight: 15, Bind: func(r *rand.Rand) []any { return []any{1 + r.Intn(200)} }},
		{Kind: Kind{Name: "lineitem_window", SQL: "SELECT l_returnflag, l_linestatus, COUNT(*), SUM(l_quantity) FROM lineitem " +
			"WHERE l_shipdate >= ? AND l_shipdate < ? GROUP BY l_returnflag, l_linestatus"},
			Weight: 10, Bind: func(r *rand.Rand) []any {
				from := time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, r.Intn(2300))
				return []any{from.Format("2006-01-02"), from.AddDate(0, 0, 30).Format("2006-01-02")}
			}},
		{Kind: Kind{Name: KindEventsUser, SQL: "SELECT COUNT(*), SUM(e_amount) FROM events WHERE e_user = ?"},
			Weight: 10, Bind: func(r *rand.Rand) []any { return []any{r.Intn(EventUsers)} }},
		{Kind: Kind{Name: KindEventsKind, SQL: "SELECT e_kind, COUNT(*), SUM(e_amount) FROM events WHERE e_id >= ? GROUP BY e_kind"},
			Weight: 10, Bind: func(r *rand.Rand) []any { return []any{r.Intn(InitialEvents)} }},
	},
}

// IsEvents reports whether a read kind runs over the events table.
func IsEvents(kind string) bool { return kind == KindEventsUser || kind == KindEventsKind }

// Conns is the number of client connections of the open loop: at most
// nproc, and two at most.
func Conns() int {
	n, _ := Procs()
	if n > 2 {
		n = 2
	}
	return n
}

// ServiceEnv is a set-up service workload: a loaded database behind the
// query service on a loopback port, one session per connection with every
// read prepared, and the references of every distinct read.
type ServiceEnv struct {
	Spec   *ServiceSpec
	DB     *wasmdb.DB
	Oracle Oracle
	Pools  map[string][][]any
	// Initial is the model of the events rows loaded at set-up; Gen
	// continues the sequence for the measured INSERT batches.
	Initial []Event
	Gen     *EventGen

	srv      *server.Server
	hs       *http.Server
	served   chan error
	base     string
	client   *http.Client
	sessions []string
	stmts    []map[string]string
}

// SetupService loads TPC-H and the events table, computes the references
// of every pooled read with the volcano backend, starts the service, opens
// one session per connection on backend auto with every read prepared, and
// warms every read up over HTTP, checked.
func SetupService(spec *ServiceSpec, seed int64) (*ServiceEnv, error) {
	db := wasmdb.Open()
	if err := db.LoadTPCH(spec.Scale, TPCHSeed); err != nil {
		return nil, fmt.Errorf("load TPC-H: %w", err)
	}
	if err := db.Exec(EventsDDL); err != nil {
		return nil, err
	}
	env := &ServiceEnv{Spec: spec, DB: db, Oracle: Oracle{}, Pools: map[string][][]any{}, Gen: NewEventGen(seed + 1)}
	env.Initial = env.Gen.Next(InitialEvents)
	for i := 0; i < len(env.Initial); i += 500 {
		if err := db.Exec(InsertSQL(env.Initial[i:min(i+500, len(env.Initial))])); err != nil {
			return nil, fmt.Errorf("load events: %w", err)
		}
	}
	rng := rand.New(rand.NewSource(seed + 2))
	for _, rk := range spec.Reads {
		st, err := db.Prepare(rk.SQL)
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", rk.Name, err)
		}
		for i := 0; i < spec.PoolSize; i++ {
			args := rk.Bind(rng)
			env.Pools[rk.Name] = append(env.Pools[rk.Name], args)
			ref, err := st.QueryContext(context.Background(), args, wasmdb.WithBackend(wasmdb.BackendVolcano))
			if err != nil {
				return nil, fmt.Errorf("reference %s: %w", rk.Name, err)
			}
			want, err := WireAnswer(ref, rk.Ordered)
			if err != nil {
				return nil, err
			}
			if IsEvents(rk.Name) {
				// The events model must agree with the volcano backend on
				// the loaded rows before it can judge the measured reads.
				got, err := EventsAnswer(rk.Name, args, env.Initial)
				if err != nil {
					return nil, err
				}
				if got != want {
					return nil, fmt.Errorf("events model disagrees with volcano on %s%v", rk.Name, args)
				}
				continue
			}
			env.Oracle[RefKey(rk.Name, args)] = want
		}
	}
	if err := env.start(); err != nil {
		return nil, err
	}
	return env, nil
}

// StartService puts db behind the query service with one session per
// connection, configured by spec.Settings and with every read of spec
// prepared, and warms every read up over HTTP, checked against oracle.
// pools holds the argument tuples of each read kind.
func StartService(spec *ServiceSpec, db *wasmdb.DB, oracle Oracle, pools map[string][][]any) (*ServiceEnv, error) {
	env := &ServiceEnv{Spec: spec, DB: db, Oracle: oracle, Pools: pools}
	if err := env.start(); err != nil {
		return nil, err
	}
	return env, nil
}

func (env *ServiceEnv) start() (err error) {
	defer func() {
		if err != nil {
			env.Close()
		}
	}()
	env.srv = server.New(env.DB, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	env.hs = &http.Server{Handler: env.srv.Handler()}
	env.served = make(chan error, 1)
	go func() { env.served <- env.hs.Serve(ln) }()
	env.base = "http://" + ln.Addr().String()
	conns := Conns()
	env.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	for c := 0; c < conns; c++ {
		var sess struct{ Session string }
		if err := env.post("/v1/session", map[string]any{}, &sess); err != nil {
			return err
		}
		for _, kv := range env.Spec.Settings {
			if err := env.post("/v1/set", map[string]any{"session": sess.Session, "key": kv[0], "value": kv[1]}, nil); err != nil {
				return err
			}
		}
		stmts := map[string]string{}
		for _, rk := range env.Spec.Reads {
			var p struct{ Stmt string }
			if err := env.post("/v1/prepare", map[string]any{"session": sess.Session, "sql": rk.SQL}, &p); err != nil {
				return err
			}
			stmts[rk.Name] = p.Stmt
		}
		env.sessions = append(env.sessions, sess.Session)
		env.stmts = append(env.stmts, stmts)
	}
	for c := range env.sessions {
		for _, rk := range env.Spec.Reads {
			pool := env.Pools[rk.Name]
			for _, args := range pool[:min(4, len(pool))] {
				r := env.read(c, rk.Name, args)
				if r.err == nil {
					r.err = env.checkRead(rk, args, r.rows, env.Initial)
				}
				if r.err != nil {
					return fmt.Errorf("warm-up %s: %w", rk.Name, r.err)
				}
			}
		}
	}
	return nil
}

// Close stops the service and waits for it to exit.
func (env *ServiceEnv) Close() {
	if env.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = env.hs.Shutdown(ctx) // stops the listener and idle connections
	<-env.served
	_ = env.srv.Shutdown(ctx)
	env.client.CloseIdleConnections()
	env.hs = nil
}

// errStatus is a non-200 response.
type errStatus struct {
	code int
	body string
}

func (e *errStatus) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// Refused reports whether err is an overload refusal of the service.
func Refused(err error) bool {
	s, ok := err.(*errStatus)
	return ok && (s.code == http.StatusTooManyRequests || s.code == http.StatusServiceUnavailable)
}

func (env *ServiceEnv) post(path string, body any, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := env.client.Post(env.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return &errStatus{resp.StatusCode, string(bytes.TrimSpace(data))}
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// readReply is the part of a query response the benchmark uses.
type readReply struct {
	rows  [][]json.RawMessage
	stats struct {
		ExecNs      int64 `json:"exec_ns"`
		TranslateNs int64 `json:"translate_ns"`
		AdmissionNs int64 `json:"admission_ns"`
	}
	err error
}

func (env *ServiceEnv) read(conn int, kind string, args []any) readReply {
	var body struct {
		Rows  [][]json.RawMessage `json:"rows"`
		Stats json.RawMessage     `json:"stats"`
	}
	var r readReply
	r.err = env.post("/v1/query", map[string]any{
		"session": env.sessions[conn], "stmt": env.stmts[conn][kind], "args": args,
	}, &body)
	if r.err == nil {
		r.rows = body.Rows
		r.err = json.Unmarshal(body.Stats, &r.stats)
	}
	return r
}

func (env *ServiceEnv) checkRead(rk ReadKind, args []any, rows [][]json.RawMessage, events []Event) error {
	got := RawAnswer(rows, rk.Ordered)
	if !IsEvents(rk.Name) {
		return env.Oracle.Check(RefKey(rk.Name, args), got)
	}
	want, err := EventsAnswer(rk.Name, args, events)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("wrong result for %s: %d rows, want %d (digest mismatch)", RefKey(rk.Name, args), got.Rows, want.Rows)
	}
	return nil
}

// Op is one request of the measured open loop.
type Op struct {
	Read  *ReadKind
	Args  []any
	Write []Event
	SQL   string
}

// Outcome is what happened to one Op.
type Outcome struct {
	Due, Sent, Done time.Time
	Err             error
	// Rows are the raw rows of a read. They are checked once the run has
	// ended, so checking takes no connection time from later requests;
	// events reads are checked against every state the concurrent writes
	// allow.
	Rows [][]json.RawMessage
	// AdmissionNs, ExecNs and TranslateNs are what the service reported.
	AdmissionNs, ExecNs, TranslateNs int64
}

// Ops draws the request mix for a schedule from seed.
func (env *ServiceEnv) Ops(seed int64, n int) []Op {
	rng := rand.New(rand.NewSource(seed + 3))
	total := 0
	for _, rk := range env.Spec.Reads {
		total += rk.Weight
	}
	ops := make([]Op, n)
	for i := range ops {
		if rng.Float64() < env.Spec.WriteFrac {
			rows := env.Gen.Next(EventBatch)
			ops[i] = Op{Write: rows, SQL: InsertSQL(rows)}
			continue
		}
		w := rng.Intn(total)
		for j := range env.Spec.Reads {
			rk := &env.Spec.Reads[j]
			if w < rk.Weight {
				pool := env.Pools[rk.Name]
				ops[i] = Op{Read: rk, Args: pool[rng.Intn(len(pool))]}
				break
			}
			w -= rk.Weight
		}
	}
	return ops
}

// ServiceRun is one measured open-loop run.
type ServiceRun struct {
	Start    time.Time
	Window   time.Duration
	Ops      []Op
	Outcomes []Outcome
	Late     []time.Duration
}

// Run drives the open loop at the spec's rate for d.
func (env *ServiceEnv) Run(seed int64, d time.Duration) *ServiceRun {
	sched := Schedule(seed, env.Spec.Rate, d)
	run := &ServiceRun{Ops: env.Ops(seed, len(sched)), Outcomes: make([]Outcome, len(sched))}
	run.Start, run.Late = OpenLoop(sched, len(env.sessions), func(conn, i int, due time.Time) {
		op, out := &run.Ops[i], &run.Outcomes[i]
		out.Due, out.Sent = due, time.Now()
		if op.Read == nil {
			out.Err = env.post("/v1/exec", map[string]any{"sql": op.SQL}, nil)
			out.Done = time.Now()
			return
		}
		r := env.read(conn, op.Read.Name, op.Args)
		out.Done = time.Now()
		out.Err, out.Rows = r.err, r.rows
		out.AdmissionNs, out.ExecNs, out.TranslateNs = r.stats.AdmissionNs, r.stats.ExecNs, r.stats.TranslateNs
	})
	run.Window = d
	return run
}

// Samples checks every read and turns outcomes into samples. An events
// read is correct when it equals the model of the set-up rows plus every
// INSERT acknowledged before the read was sent plus some subset of the
// INSERTs that overlapped it. A read that overlapped more INSERTs than
// maxOverlap is left unchecked: it counts as neither wrong nor failed.
func (env *ServiceEnv) Samples(run *ServiceRun) []Sample {
	type write struct {
		sent, done time.Time
		rows       []Event
	}
	var writes []write
	for i, op := range run.Ops {
		if op.Read == nil && run.Outcomes[i].Err == nil {
			writes = append(writes, write{run.Outcomes[i].Sent, run.Outcomes[i].Done, op.Write})
		}
	}
	sort.Slice(writes, func(a, b int) bool { return writes[a].sent.Before(writes[b].sent) })
	out := make([]Sample, len(run.Ops))
	for i, op := range run.Ops {
		o := run.Outcomes[i]
		s := Sample{Lat: o.Done.Sub(o.Due), Write: op.Read == nil}
		if op.Read != nil {
			s.Kind = op.Read.Name
		} else {
			s.Kind = "insert"
		}
		err := o.Err
		if err == nil && op.Read != nil && !IsEvents(op.Read.Name) {
			err = env.checkRead(*op.Read, op.Args, o.Rows, nil)
		}
		if err == nil && op.Read != nil && IsEvents(op.Read.Name) {
			base := append([]Event(nil), env.Initial...)
			var overlap [][]Event
			for _, w := range writes {
				switch {
				case w.done.Before(o.Sent):
					base = append(base, w.rows...)
				case w.sent.Before(o.Done):
					overlap = append(overlap, w.rows)
				}
			}
			if len(overlap) > maxOverlap {
				s.Unchecked = true
			} else {
				err = env.checkEvents(*op.Read, op.Args, o.Rows, base, overlap)
			}
		}
		if err != nil {
			s.Failed, s.Err = true, err.Error()
			s.Wrong = !Refused(err)
		}
		out[i] = s
	}
	return out
}

// maxOverlap bounds the INSERTs an events read is checked against: the
// check tries every subset of them.
const maxOverlap = 8

func (env *ServiceEnv) checkEvents(rk ReadKind, args []any, rows [][]json.RawMessage, base []Event, overlap [][]Event) error {
	var err error
	for mask := 0; mask < 1<<len(overlap); mask++ {
		state := base
		for j, w := range overlap {
			if mask&(1<<j) != 0 {
				state = append(state[:len(state):len(state)], w...)
			}
		}
		if err = env.checkRead(rk, args, rows, state); err == nil {
			return nil
		}
	}
	return err
}
