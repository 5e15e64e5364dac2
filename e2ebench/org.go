package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"time"

	"repro/internal/consolidate"
	"repro/internal/continuous"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/optimize"
	"repro/internal/rbac"
	"repro/internal/store"
)

// orgCorpora is how many seeded org corpora a run cycles through, so
// one run's figures do not hang on one corpus's layout.
const orgCorpora = 4

// orgInputs is a run's org corpora and its per-cycle variants. Every
// cycle uploads one corpus's template with one extra standalone user
// spliced in front, so each upload has a fresh digest while the
// analysis answer stays known: the planted ground truth plus that user.
type orgInputs struct {
	corpora  []*orgCorpus // cycle i uses corpora[i % len]
	prefixes [][]byte     // per-cycle `{"users":["<unique>",`
}

// orgCorpus is one generated corpus and what its variants must yield.
type orgCorpus struct {
	tail  []byte // compact template JSON after `{"users":[`
	want  rbac.Stats
	truth *gen.OrgGroundTruth
	// org-optimize only: the plan counts of the corpus's first variant
	// and that variant, against which one optimized dataset per run is
	// verified.
	plan     planSummary
	variant0 *rbac.Dataset
}

const usersOpen = `{"users":[`

func newOrgInputs(seed int64, div, cycles int, planned bool) (*orgInputs, error) {
	in := &orgInputs{}
	for i := 0; i < cycles; i++ {
		in.prefixes = append(in.prefixes, []byte(fmt.Sprintf(`%s"zz-bench-s%d-c%06d",`, usersOpen, seed, i)))
	}
	for k := 0; k < orgCorpora && k < cycles; k++ {
		p := gen.DefaultOrgParams().Scaled(div)
		p.Seed = seed*orgCorpora + int64(k) + 1
		ds, truth, err := gen.Org(p)
		if err != nil {
			return nil, err
		}
		template, err := json.Marshal(ds)
		if err != nil {
			return nil, err
		}
		if !bytes.HasPrefix(template, []byte(usersOpen)) || ds.NumUsers() == 0 {
			return nil, fmt.Errorf("org template does not open with a non-empty users array")
		}
		c := &orgCorpus{tail: template[len(usersOpen):], truth: truth, want: ds.Stats()}
		c.want.Users++
		if planned {
			c.variant0, err = rbac.ReadJSON(bytes.NewReader(append(append([]byte(nil), in.prefixes[k]...), c.tail...)))
			if err != nil {
				return nil, err
			}
			res, err := optimize.Run(c.variant0, optimize.Knobs{})
			if err != nil {
				return nil, err
			}
			c.plan = summarize(res)
		}
		in.corpora = append(in.corpora, c)
	}
	return in, nil
}

// planSummary is what must repeat across every optimize cycle.
type planSummary struct {
	Actions      int        `json:"actions"`
	RolesRemoved int        `json:"roles_removed"`
	EdgesDelta   int        `json:"edges_delta"`
	Rounds       int        `json:"rounds"`
	After        rbac.Stats `json:"after"`
}

func summarize(res *optimize.Result) planSummary {
	return planSummary{
		Actions:      len(res.Plan.Actions),
		RolesRemoved: res.Plan.RolesRemoved(),
		EdgesDelta:   res.Plan.EdgesDelta(),
		Rounds:       res.Rounds,
		After:        res.After,
	}
}

// uploadResponse mirrors the POST /v1/datasets answer.
type uploadResponse struct {
	Digest  string     `json:"digest"`
	Created bool       `json:"created"`
	Bytes   int64      `json:"bytes"`
	Stats   rbac.Stats `json:"stats"`
}

// orgRun drives org-audit (kind "analyze") or org-optimize (kind
// "optimize"): upload a fresh variant, read it by ref as a miss, read
// it again as a hit, delete it.
type orgRun struct {
	in     *orgInputs
	kind   string
	prefix string // op name prefix, unique per workload
	env    *layerEnv
	brk    string

	cur      *orgCorpus // the corpus of the current cycle
	digest   string
	missBody []byte
}

func (w *orgRun) ops() []opDef {
	return []opDef{
		{w.prefix + "_upload", "write"},
		{w.kind + "_miss", "read"},
		{w.kind + "_hit", ""},
		{w.prefix + "_delete", ""},
	}
}

func (w *orgRun) setup(*runner) error { return nil }

func (w *orgRun) cycle(r *runner, i int) {
	w.cur = w.in.corpora[i%len(w.in.corpora)]
	if _, ok := r.do(w.uploadStep(multi(w.in.prefixes[i], w.cur.tail))); !ok {
		r.skip(3, "upload")
		return
	}
	if resp, ok := r.do(w.readStep(w.kind+"_miss", "read", i)); ok {
		w.missBody = resp.body
		r.do(w.readStep(w.kind+"_hit", "", i))
	} else {
		r.skip(1, "miss")
	}
	r.do(w.deleteStep())
}

func (w *orgRun) uploadStep(body func() (io.Reader, int64)) *step {
	return &step{
		op: w.prefix + "_upload", class: "write", method: "POST", path: "/v1/datasets", body: body,
		replay: func(tr *tracer, root int) (response, error) {
			rd, _ := body()
			var ds *rbac.Dataset
			if err := tr.call("rbac.read_stream", root, func() (err error) {
				ds, err = rbac.ReadJSONStream(rd)
				return err
			}); err != nil {
				return response{}, err
			}
			var digest string
			var canonical []byte
			if err := tr.call("store.digest", root, func() (err error) {
				digest, canonical, err = store.DigestOf(ds)
				return err
			}); err != nil {
				return response{}, err
			}
			var created bool
			if err := tr.call("store.put_canonical", root, func() (err error) {
				created, err = w.env.st.PutCanonical(digest, canonical)
				return err
			}); err != nil {
				return response{}, err
			}
			status := 200
			if created {
				status = 201
			}
			return encodeResponse(tr, root, status, uploadResponse{
				Digest: digest, Created: created, Bytes: int64(len(canonical)), Stats: ds.Stats(),
			})
		},
		check: func(r response) error {
			var got uploadResponse
			if err := expectJSON(r, 201, &got); err != nil {
				return err
			}
			if _, err := hex.DecodeString(got.Digest); err != nil || len(got.Digest) != 64 || !got.Created {
				return fmt.Errorf("bad upload answer: digest %q created %v", got.Digest, got.Created)
			}
			want := w.cur.want
			if w.brk == "upload" {
				want.Users++
			}
			if got.Stats != want {
				return fmt.Errorf("upload stats %+v, want %+v", got.Stats, want)
			}
			w.digest = got.Digest
			return nil
		},
	}
}

func (w *orgRun) readStep(op, class string, i int) *step {
	reqBody := []byte(`{"dataset_ref":"` + w.digest + `"}`)
	hit := op == w.kind+"_hit"
	return &step{
		op: op, class: class, method: "POST", path: "/v1/" + w.kind, body: multi(reqBody),
		replay: func(tr *tracer, root int) (response, error) {
			return w.replayRead(tr, root, reqBody)
		},
		check: func(r response) error {
			if r.status != 200 {
				return fmt.Errorf("status %d: %.200s", r.status, r.body)
			}
			if hit {
				want := w.missBody
				if w.brk == "hit" {
					want = append(append([]byte(nil), want...), ' ')
				}
				if r.cache != "hit" || !bytes.Equal(r.body, want) {
					return fmt.Errorf("X-Cache %q, body identical to the miss: %v", r.cache, bytes.Equal(r.body, want))
				}
				return nil
			}
			if r.cache != "miss" {
				return fmt.Errorf("X-Cache %q, want miss", r.cache)
			}
			if w.kind == "analyze" {
				return w.checkReport(r.body)
			}
			return w.checkPlan(r.body, i < len(w.in.corpora))
		},
	}
}

// checkReport compares a report's class counts with the planted ground
// truth plus the one spliced standalone user.
func (w *orgRun) checkReport(body []byte) error {
	var rep core.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		return err
	}
	gt := w.cur.truth
	wantUsers := gt.StandaloneUsers + 1
	if w.brk == "miss" {
		wantUsers++
	}
	same, samep := core.StatsOf(rep.SameUserGroups), core.StatsOf(rep.SamePermissionGroups)
	sim, simp := core.StatsOf(rep.SimilarUserGroups), core.StatsOf(rep.SimilarPermissionGroups)
	got := []int{
		len(rep.StandaloneUsers), len(rep.StandalonePermissions), len(rep.StandaloneRoles),
		len(rep.RolesWithoutUsers), len(rep.RolesWithoutPermissions),
		len(rep.RolesWithSingleUser), len(rep.RolesWithSinglePermission),
		same.Groups, same.RolesInGroups, samep.Groups, samep.RolesInGroups,
		sim.Groups, sim.RolesInGroups, simp.Groups, simp.RolesInGroups,
	}
	// At threshold 1 the similar detector also groups the exact pairs.
	want := []int{
		wantUsers, gt.StandalonePermissions, gt.StandaloneRoles,
		gt.RolesWithoutUsers, gt.RolesWithoutPermissions,
		gt.SingleUserRoles, gt.SinglePermissionRoles,
		gt.SameUserGroups, gt.SameUserGroupRoles, gt.SamePermissionGroups, gt.SamePermissionGroupRoles,
		gt.SimilarUserGroups + gt.SameUserGroups, gt.SimilarUserGroupRoles + gt.SameUserGroupRoles,
		gt.SimilarPermissionGroups + gt.SamePermissionGroups, gt.SimilarPermissionGroupRoles + gt.SamePermissionGroupRoles,
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("report class counts %v, want %v", got, want)
	}
	return nil
}

// planWire decodes the parts of an optimize answer that are checked.
type planWire struct {
	Plan      optimize.Plan   `json:"plan"`
	Rounds    int             `json:"rounds"`
	After     rbac.Stats      `json:"after"`
	Optimized json.RawMessage `json:"optimized"`
}

// checkPlan requires the plan counts of variant 0 on every cycle; on
// cycle 0 it also verifies the optimized dataset against its input
// with the reachability oracle, once per run.
func (w *orgRun) checkPlan(body []byte, verify bool) error {
	var pw planWire
	if err := json.Unmarshal(body, &pw); err != nil {
		return err
	}
	got := planSummary{
		Actions: len(pw.Plan.Actions), RolesRemoved: pw.Plan.RolesRemoved(),
		EdgesDelta: pw.Plan.EdgesDelta(), Rounds: pw.Rounds, After: pw.After,
	}
	want := w.cur.plan
	if w.brk == "plan" {
		want.RolesRemoved++
	}
	if got != want {
		return fmt.Errorf("plan %+v, want %+v", got, want)
	}
	if !verify {
		return nil
	}
	opt, err := rbac.ReadJSON(bytes.NewReader(pw.Optimized))
	if err != nil {
		return fmt.Errorf("decode optimized dataset: %w", err)
	}
	input := w.cur.variant0
	if w.brk == "safety" {
		input = input.Clone()
		if err := revokeOne(input); err != nil {
			return err
		}
	}
	if err := consolidate.VerifySafety(input, opt); err != nil {
		return fmt.Errorf("optimized dataset fails the reachability oracle: %w", err)
	}
	return nil
}

// revokeOne drops the first user assignment that grants a permission,
// a deliberately wrong reference for the safety check.
func revokeOne(d *rbac.Dataset) error {
	for _, r := range d.Roles() {
		us, _ := d.RoleUsers(r)
		ps, _ := d.RolePermissions(r)
		if len(us) > 0 && len(ps) > 0 {
			return d.RevokeUser(r, us[0])
		}
	}
	return fmt.Errorf("no assignment to revoke")
}

// replayRead mirrors the by-ref read: envelope decode, registry
// lookup, then the result cache around the engine and its encoding.
func (w *orgRun) replayRead(tr *tracer, root int, reqBody []byte) (response, error) {
	var digest string
	if err := tr.call("server.decode", root, func() error {
		if _, err := io.ReadAll(bytes.NewReader(reqBody)); err != nil {
			return err
		}
		var probe struct {
			Dataset    json.RawMessage `json:"dataset"`
			DatasetRef string          `json:"dataset_ref"`
		}
		if err := json.Unmarshal(reqBody, &probe); err != nil {
			return err
		}
		var env struct {
			DatasetRef string          `json:"dataset_ref"`
			Options    *core.Options   `json:"options"`
			Optimize   *optimize.Knobs `json:"optimize"`
		}
		if err := json.Unmarshal(reqBody, &env); err != nil {
			return err
		}
		var err error
		digest, err = store.ParseDigest(env.DatasetRef)
		return err
	}); err != nil {
		return response{}, err
	}
	var ds *rbac.Dataset
	if err := tr.call("store.get_dataset", root, func() error {
		var ok bool
		if ds, _, ok = w.env.st.GetDataset(digest); !ok {
			return fmt.Errorf("dataset %s not found", digest)
		}
		return nil
	}); err != nil {
		return response{}, err
	}
	var body []byte
	var hit bool
	var planned *optimize.Result
	parent := tr.begin("store.result", root)
	err := func() error {
		var extra []string
		if w.kind == "optimize" {
			kb, err := json.Marshal(optimize.Knobs{})
			if err != nil {
				return err
			}
			extra = append(extra, "optimize:"+string(kb))
		}
		fp, err := store.Fingerprint(core.Options{}, extra...)
		if err != nil {
			return err
		}
		key := store.Key{Dataset: digest, Fingerprint: fp, Kind: w.kind}
		body, hit, err = w.env.st.Result(context.Background(), key, func(ctx context.Context) ([]byte, error) {
			if w.kind == "analyze" {
				return replayAnalyze(ctx, tr, parent, ds)
			}
			var out []byte
			err := tr.call("optimize.run", parent, func() (err error) {
				planned, err = optimize.RunContext(ctx, ds, optimize.Knobs{})
				return err
			})
			if err != nil {
				return nil, err
			}
			tr.count("optimize.roles_removed", float64(planned.Plan.RolesRemoved()))
			tr.count("optimize.rounds", float64(planned.Rounds))
			tr.count("optimize.actions", float64(len(planned.Plan.Actions)))
			err = tr.call("optimize.encode", parent, func() (err error) {
				out, err = json.Marshal(planned)
				return err
			})
			return out, err
		})
		return err
	}()
	tr.end(parent)
	if err != nil {
		return response{}, err
	}
	if planned != nil {
		// The oracle timed on its own, after the op's handler span: a
		// root span of its own.
		tr.after = func() error {
			return tr.call("consolidate.verify_safety", -1, func() error {
				return consolidate.VerifySafety(ds, planned.Optimized)
			})
		}
	}
	_ = tr.call("continuous.decision_append", root, func() error {
		w.env.declog.Append(continuous.Decision{Source: "api", Kind: w.kind, Dataset: digest, CacheHit: hit})
		return nil
	})
	cache := "miss"
	if hit {
		cache = "hit"
	}
	// The handler's writeRawJSON, into the same kind of ResponseWriter
	// the handler is timed with.
	out := httptest.NewRecorder()
	_ = tr.call("server.write", root, func() error {
		out.Header().Set("X-Cache", cache)
		out.Header().Set("Content-Type", "application/json")
		out.Write(body)
		out.Write([]byte{'\n'})
		return nil
	})
	return response{status: 200, cache: cache, body: out.Body.Bytes()}, nil
}

// replayAnalyze is core.AnalyzeContext split at its public seams:
// NewAnalyzer, then the detection stages (edges taken from the
// progress hook), then the report encoding the cache stores.
func replayAnalyze(ctx context.Context, tr *tracer, parent int, ds *rbac.Dataset) ([]byte, error) {
	var a *core.Analyzer
	_ = tr.call("core.new_analyzer", parent, func() error {
		a = core.NewAnalyzer(ds)
		return nil
	})
	// The last progress report of a stage is its closing edge; the
	// linear scan opens with a report of its own.
	var order []string
	last := map[string]time.Time{}
	var first time.Time
	opts := core.Options{Progress: func(stage string, _ float64) {
		now := time.Now()
		if first.IsZero() {
			first = now
		}
		if _, ok := last[stage]; !ok {
			order = append(order, stage)
		}
		last[stage] = now
	}}
	id := tr.begin("core.analyze", parent)
	rep, err := a.AnalyzeContext(ctx, opts)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	prev := first
	for _, stage := range order {
		if stage == core.StageDone {
			continue
		}
		tr.mark("core."+stageMetric(stage), id, prev, last[stage])
		prev = last[stage]
	}
	var out []byte
	err = tr.call("core.report_encode", parent, func() (err error) {
		out, err = json.Marshal(rep)
		return err
	})
	tr.count("core.report_bytes", float64(len(out)))
	return out, err
}

// stageMetric maps a core stage name to its metric stem.
func stageMetric(stage string) string {
	return map[string]string{
		core.StageLinearScan:              "linear_scan",
		core.StageSameUserGroups:          "same_user_groups",
		core.StageSamePermissionGroups:    "same_permission_groups",
		core.StageSimilarUserGroups:       "similar_user_groups",
		core.StageSimilarPermissionGroups: "similar_permission_groups",
	}[stage]
}

func (w *orgRun) deleteStep() *step {
	digest := w.digest
	return &step{
		op: w.prefix + "_delete", method: "DELETE", path: "/v1/datasets/" + digest,
		replay: func(tr *tracer, root int) (response, error) {
			_ = tr.call("server.decode", root, func() (err error) {
				_, err = store.ParseDigest(digest)
				return err
			})
			var ok bool
			_ = tr.call("store.delete_dataset", root, func() error {
				ok = w.env.st.DeleteDataset(digest)
				return nil
			})
			if !ok {
				return response{status: 404}, nil
			}
			return encodeResponse(tr, root, 200, map[string]string{"deleted": digest})
		},
		check: func(r response) error {
			var got map[string]string
			if err := expectJSON(r, 200, &got); err != nil {
				return err
			}
			if got["deleted"] != digest {
				return fmt.Errorf("delete answered %v", got)
			}
			return nil
		},
	}
}

// encodeResponse mirrors the handler's JSON encoding of a small answer.
func encodeResponse(tr *tracer, root, status int, v any) (response, error) {
	return encodeAs(tr, "server.encode", root, status, v)
}

// encodeAs writes v the way the handler's writeJSON does, into the
// same kind of ResponseWriter the handler is timed with, as span name.
func encodeAs(tr *tracer, name string, root, status int, v any) (response, error) {
	w := httptest.NewRecorder()
	err := tr.call(name, root, func() error {
		w.Header().Set("Content-Type", "application/json")
		return json.NewEncoder(w).Encode(v)
	})
	return response{status: status, body: w.Body.Bytes()}, err
}

// expectJSON checks the status and decodes the body.
func expectJSON(r response, status int, v any) error {
	if r.status != status {
		return fmt.Errorf("status %d, want %d: %.200s", r.status, status, r.body)
	}
	return json.Unmarshal(r.body, v)
}
