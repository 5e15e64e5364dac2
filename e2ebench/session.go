package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rbac"
	"repro/internal/replay"
	"repro/internal/session"
	"repro/internal/store"
)

const (
	batchEvents = 200
	// sessionPeriod is how many batches a session takes before it is
	// deleted and recreated, replaying a stream from its start: the
	// session's size, and so the per-event cost, stays stationary
	// however many cycles a run makes.
	sessionPeriod = 10
	// sessionStreams is how many seeded event streams a run rotates
	// through, one per session period, so one run's figures do not hang
	// on one stream's mix of events.
	sessionStreams = 8
)

// sessionInputs is the session-churn base, its seeded event streams cut
// into batches, and the audit expected after each batch.
type sessionInputs struct {
	base     []byte // compact base JSON
	stats    rbac.Stats
	batches  [][][]byte      // [stream][batch] JSONL, batchEvents each
	expected [][]auditGroups // [stream][batch]
}

// auditGroups is the class-4 answer in canonical order.
type auditGroups struct {
	Users [][]rbac.RoleID
	Perms [][]rbac.RoleID
}

func newSessionInputs(seed int64, div int) (*sessionInputs, error) {
	p := gen.DefaultOrgParams().Scaled(div)
	p.Seed = seed
	ds, _, err := gen.Org(p)
	if err != nil {
		return nil, err
	}
	in := &sessionInputs{stats: ds.Stats()}
	if in.base, err = json.Marshal(ds); err != nil {
		return nil, err
	}
	for s := 0; s < sessionStreams; s++ {
		events, err := gen.Drift(ds, gen.DriftParams{Events: sessionPeriod * batchEvents, Seed: seed*sessionStreams + int64(s) + 1})
		if err != nil {
			return nil, err
		}
		// The expected audits come from a full sparse re-analysis of
		// the base with the same events replayed locally.
		local := ds.Clone()
		var batches [][]byte
		var expected []auditGroups
		for b := 0; b < sessionPeriod; b++ {
			batch := events[b*batchEvents : (b+1)*batchEvents]
			var buf bytes.Buffer
			if err := replay.WriteLog(&buf, batch); err != nil {
				return nil, err
			}
			batches = append(batches, buf.Bytes())
			for _, e := range batch {
				if err := replay.Apply(local, e); err != nil {
					return nil, err
				}
			}
			rep, err := core.AnalyzeSparse(local, core.Options{SkipSimilar: true})
			if err != nil {
				return nil, err
			}
			expected = append(expected, auditGroups{
				Users: canonicalGroups(roleGroups(rep.SameUserGroups)),
				Perms: canonicalGroups(roleGroups(rep.SamePermissionGroups)),
			})
		}
		in.batches = append(in.batches, batches)
		in.expected = append(in.expected, expected)
	}
	return in, nil
}

func roleGroups(gs []core.RoleGroup) [][]rbac.RoleID {
	out := make([][]rbac.RoleID, len(gs))
	for i, g := range gs {
		out[i] = g.Roles
	}
	return out
}

// canonicalGroups sorts members and then groups, on copies.
func canonicalGroups(gs [][]rbac.RoleID) [][]rbac.RoleID {
	out := make([][]rbac.RoleID, len(gs))
	for i, g := range gs {
		out[i] = append([]rbac.RoleID(nil), g...)
		sort.Slice(out[i], func(a, b int) bool { return out[i][a] < out[i][b] })
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}

// sessionRun drives session-churn: the base is registered and a session
// opened in setup; each cycle posts one event batch and reads the
// session audit; every sessionPeriod batches the session is replaced.
type sessionRun struct {
	in  *sessionInputs
	env *layerEnv
	brk string

	digest string
	id     string
}

func (w *sessionRun) ops() []opDef {
	return []opDef{
		{"events", "write"},
		{"session_audit", "read"},
		{"session_create", ""},
		{"session_delete", ""},
	}
}

func (w *sessionRun) setup(r *runner) error {
	up := &orgRun{cur: &orgCorpus{want: w.in.stats}, prefix: "base", env: w.env}
	if _, ok := r.do(up.uploadStep(multi(w.in.base))); !ok {
		return fmt.Errorf("register base: %v", r.failures)
	}
	w.digest = up.digest
	if _, ok := r.do(w.createStep()); !ok {
		return fmt.Errorf("open session: %v", r.failures)
	}
	return nil
}

func (w *sessionRun) cycle(r *runner, i int) {
	stream, b := (i/sessionPeriod)%sessionStreams, i%sessionPeriod
	if b == 0 && i > 0 {
		r.do(w.deleteStep())
		if _, ok := r.do(w.createStep()); !ok {
			r.skip(2, "session create")
			return
		}
	}
	if _, ok := r.do(w.eventsStep(stream, b)); !ok {
		r.skip(1, "events")
		return
	}
	r.do(w.auditStep(stream, b))
}

// sessionCreated mirrors the POST /v1/sessions answer.
type sessionCreated struct {
	session.Info
	Node string `json:"node"`
}

func (w *sessionRun) createStep() *step {
	reqBody := []byte(`{"base_ref":"` + w.digest + `"}`)
	return &step{
		op: "session_create", method: "POST", path: "/v1/sessions", body: multi(reqBody),
		replay: func(tr *tracer, root int) (response, error) {
			var digest string
			if err := tr.call("server.decode", root, func() error {
				var req struct {
					BaseRef string `json:"base_ref"`
				}
				if err := json.Unmarshal(reqBody, &req); err != nil {
					return err
				}
				var err error
				digest, err = store.ParseDigest(req.BaseRef)
				return err
			}); err != nil {
				return response{}, err
			}
			var ds *rbac.Dataset
			if err := tr.call("store.get_dataset", root, func() error {
				var ok bool
				if ds, _, ok = w.env.st.GetDataset(digest); !ok {
					return fmt.Errorf("base %s not found", digest)
				}
				return nil
			}); err != nil {
				return response{}, err
			}
			var s *session.Session
			if err := tr.call("session.create", root, func() (err error) {
				s, err = w.env.sessions.Create(digest, ds)
				return err
			}); err != nil {
				return response{}, err
			}
			return encodeResponse(tr, root, 201, sessionCreated{Info: s.Info(), Node: "replay"})
		},
		check: func(r response) error {
			var got sessionCreated
			if err := expectJSON(r, 201, &got); err != nil {
				return err
			}
			if got.ID == "" || got.Events != 0 || got.Stats != w.in.stats {
				return fmt.Errorf("session opened as %+v", got.Info)
			}
			w.id = got.ID
			return nil
		},
	}
}

func (w *sessionRun) deleteStep() *step {
	id := w.id
	return &step{
		op: "session_delete", method: "DELETE", path: "/v1/sessions/" + id,
		replay: func(tr *tracer, root int) (response, error) {
			var ok bool
			_ = tr.call("session.delete", root, func() error {
				ok = w.env.sessions.Delete(id)
				return nil
			})
			if !ok {
				return response{status: 404}, nil
			}
			if err := tr.call("store.remove_session_log", root, func() error {
				return w.env.st.RemoveSessionLog(id)
			}); err != nil {
				return response{}, err
			}
			return encodeResponse(tr, root, 200, map[string]string{"closed": id})
		},
		check: func(r response) error {
			var got map[string]string
			if err := expectJSON(r, 200, &got); err != nil {
				return err
			}
			if got["closed"] != id {
				return fmt.Errorf("delete answered %v", got)
			}
			return nil
		},
	}
}

// eventsAnswer mirrors the POST /v1/sessions/{id}/events answer.
type eventsAnswer struct {
	ID      string     `json:"id"`
	Applied int        `json:"applied"`
	Events  int        `json:"events"`
	Stats   rbac.Stats `json:"stats"`
}

func (w *sessionRun) eventsStep(stream, b int) *step {
	id, batch := w.id, w.in.batches[stream][b]
	return &step{
		op: "events", class: "write", method: "POST", path: "/v1/sessions/" + id + "/events", body: multi(batch),
		replay: func(tr *tracer, root int) (response, error) {
			s, err := w.lookup(tr, root, id)
			if err != nil {
				return response{}, err
			}
			var events []replay.Event
			if err := tr.call("replay.read_log", root, func() (err error) {
				events, err = replay.ReadLogLimited(bytes.NewReader(batch), replay.Limits{})
				return err
			}); err != nil {
				return response{}, err
			}
			var applied int
			if err := tr.call("session.apply", root, func() (err error) {
				applied, err = s.Apply(events)
				return err
			}); err != nil {
				return response{}, err
			}
			var buf bytes.Buffer
			if err := tr.call("replay.write_log", root, func() error {
				return replay.WriteLog(&buf, events[:applied])
			}); err != nil {
				return response{}, err
			}
			if err := tr.call("store.append_session_log", root, func() error {
				return w.env.st.AppendSessionLog(id, buf.Bytes())
			}); err != nil {
				return response{}, err
			}
			info := s.Info()
			return encodeResponse(tr, root, 200, eventsAnswer{ID: id, Applied: applied, Events: info.Events, Stats: info.Stats})
		},
		check: func(r response) error {
			var got eventsAnswer
			if err := expectJSON(r, 200, &got); err != nil {
				return err
			}
			want := batchEvents
			if w.brk == "events" {
				want++
			}
			if got.Applied != want || got.Events != (b+1)*batchEvents {
				return fmt.Errorf("applied %d (lifetime %d), want %d (%d)", got.Applied, got.Events, want, (b+1)*batchEvents)
			}
			return nil
		},
	}
}

// lookup mirrors the handler's session resolution.
func (w *sessionRun) lookup(tr *tracer, root int, id string) (*session.Session, error) {
	var s *session.Session
	err := tr.call("session.get", root, func() (err error) {
		s, err = w.env.sessions.Get(id)
		return err
	})
	return s, err
}

func (w *sessionRun) auditStep(stream, b int) *step {
	id := w.id
	return &step{
		op: "session_audit", class: "read", method: "GET", path: "/v1/sessions/" + id + "/audit",
		replay: func(tr *tracer, root int) (response, error) {
			s, err := w.lookup(tr, root, id)
			if err != nil {
				return response{}, err
			}
			var a session.Audit
			_ = tr.call("session.audit", root, func() error {
				a = s.Audit()
				return nil
			})
			return encodeAs(tr, "session.audit_encode", root, 200, a)
		},
		check: func(r response) error {
			var got session.Audit
			if err := expectJSON(r, 200, &got); err != nil {
				return err
			}
			want := w.in.expected[stream][b]
			if w.brk == "audit" {
				want.Perms = want.Perms[1:]
			}
			gotGroups := auditGroups{Users: canonicalGroups(got.SameUserGroups), Perms: canonicalGroups(got.SamePermissionGroups)}
			if got.Events != (b+1)*batchEvents || !reflect.DeepEqual(gotGroups, want) {
				return fmt.Errorf("audit after %d events: %d user and %d permission groups, want %d and %d (or groups differ)",
					got.Events, len(gotGroups.Users), len(gotGroups.Perms), len(want.Users), len(want.Perms))
			}
			return nil
		},
	}
}
