package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/continuous"
	"repro/internal/jobs"
	"repro/internal/rbac"
	"repro/internal/replay"
	"repro/internal/session"
	"repro/internal/store"
)

// Mutation sessions and the drift endpoint: the O(delta) audit
// surface. A session pins a base dataset and keeps the duplicate-role
// indices live as replay events stream in; audits read off the index
// instead of re-running the engine. /v1/drift is the one-shot form —
// reconcile two registered snapshots and replay the delta through a
// throwaway session.

// registerSessions wires the mutation-session lifecycle and the drift
// endpoint. Called from NewHandler.
func (h *handler) registerSessions() {
	h.handle("POST /v1/sessions", h.sessionCreate)
	h.handle("GET /v1/sessions", h.sessionList)
	h.handle("GET /v1/sessions/{id}", h.sessionGet)
	h.handle("DELETE /v1/sessions/{id}", h.sessionDelete)
	h.handle("POST /v1/sessions/{id}/events", h.sessionEvents)
	h.handle("GET /v1/sessions/{id}/audit", h.sessionAudit)
	h.handle("POST /v1/drift", h.drift)
}

// sessionCreateRequest opens a session over a registered dataset.
type sessionCreateRequest struct {
	BaseRef string `json:"base_ref"`
}

// sessionCreateResponse is the create payload: the session Info plus
// the node holding it. Sessions are node-local state — later event and
// audit requests must reach the same node, which Node names. In a
// fleet, creation forwards to the base digest's owner so the session
// lands next to its data; Degraded marks the owner being unreachable
// and the session opening locally instead.
type sessionCreateResponse struct {
	session.Info
	Node     string `json:"node"`
	Owner    string `json:"owner,omitempty"`
	Degraded bool   `json:"degraded,omitempty"`
}

// sessionCreate opens a live mutation session from {"base_ref":
// "<digest>"}. The base must be registered (fleet fetch-through
// applies); the session starts as a clone of it with both incremental
// indices built. In a fleet, a non-owner node forwards creation to the
// digest's owner and relays its answer, so the session lives where the
// dataset does; if the owner is unreachable the session opens locally
// with degraded:true.
func (h *handler) sessionCreate(w http.ResponseWriter, r *http.Request) {
	body, ok := h.readBody(w, r)
	if !ok {
		return
	}
	var req sessionCreateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("parse request: %w", err))
		return
	}
	if req.BaseRef == "" {
		writeError(w, http.StatusBadRequest, errors.New(`session needs {"base_ref": "<digest>"}`))
		return
	}
	digest, err := store.ParseDigest(req.BaseRef)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	owner, degraded := "", false
	if h.fleet.Enabled() && r.Header.Get(fleetHeader) == "" {
		owner = h.fleet.Owner(digest)
		if owner != h.fleet.Self() {
			hdr := http.Header{fleetHeader: []string{"forward"}, "Content-Type": []string{"application/json"}}
			resp, ferr := h.fleet.Do(r.Context(), http.MethodPost, owner, "/v1/sessions", body, hdr)
			if ferr == nil {
				w.Header().Set("Content-Type", "application/json")
				w.Header().Set("X-Fleet-Routed", owner)
				w.WriteHeader(resp.Status)
				_, _ = w.Write(resp.Body)
				return
			}
			h.opts.Logf("fleet: session over %s: owner %s unreachable, opening locally: %v",
				digest, owner, ferr)
			degraded = true
		}
	}

	ds, digest, ok := h.resolveRef(w, r, digest)
	if !ok {
		return
	}
	s, err := h.sessions.Create(digest, ds)
	if err != nil {
		if errors.Is(err, session.ErrTooManySessions) {
			w.Header().Set("Retry-After", retryAfterSeconds(h.opts.RetryAfter))
			writeError(w, http.StatusTooManyRequests, err)
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Location", "/v1/sessions/"+s.ID())
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, sessionCreateResponse{
		Info:     s.Info(),
		Node:     h.nodeID,
		Owner:    owner,
		Degraded: degraded,
	})
}

// lookupSession resolves {id}, answering 404 for unknown or
// idle-expired sessions.
func (h *handler) lookupSession(w http.ResponseWriter, r *http.Request) (*session.Session, bool) {
	id := r.PathValue("id")
	s, err := h.sessions.Get(id)
	if err != nil {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("session %q not found (unknown id, expired, or held by another node)", id))
		return nil, false
	}
	return s, true
}

// sessionList enumerates this node's live sessions, paginated.
func (h *handler) sessionList(w http.ResponseWriter, r *http.Request) {
	offset, size, ok := pageParams(w, r)
	if !ok {
		return
	}
	items, next := pageSlice(h.sessions.List(), offset, size)
	writeJSON(w, listPage{Items: items, NextPageToken: next, Node: h.nodeID})
}

// sessionGet reports one session's snapshot.
func (h *handler) sessionGet(w http.ResponseWriter, r *http.Request) {
	s, ok := h.lookupSession(w, r)
	if !ok {
		return
	}
	writeJSON(w, s.Info())
}

// sessionDelete closes a session and removes its persisted event log.
func (h *handler) sessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !h.sessions.Delete(id) {
		writeError(w, http.StatusNotFound, fmt.Errorf("session %q not found", id))
		return
	}
	if err := h.store.RemoveSessionLog(id); err != nil {
		h.opts.Logf("session %s: remove log: %v", id, err)
	}
	writeJSON(w, map[string]string{"closed": id})
}

// sessionEventsResponse acknowledges an applied batch.
type sessionEventsResponse struct {
	ID      string     `json:"id"`
	Applied int        `json:"applied"`
	Events  int        `json:"events"` // lifetime total
	Stats   rbac.Stats `json:"stats"`
}

// sessionEvents applies a JSONL replay.Event batch to the session. The
// body streams straight into the bounded log reader — an overlong line
// or too many events is 400 payload_too_large before anything applies.
// Events apply in order; the first invalid one stops the batch with
// 422 and reports how many of its predecessors applied (the session
// keeps that prefix — mutation streams are not transactional, they are
// logs). The applied prefix is appended to the session's persisted log
// when the store has a directory.
func (h *handler) sessionEvents(w http.ResponseWriter, r *http.Request) {
	s, ok := h.lookupSession(w, r)
	if !ok {
		return
	}
	body, closeBody, ok := h.bodyStream(w, r, h.opts.MaxBodyBytes)
	if !ok {
		return
	}
	defer closeBody()
	events, err := replay.ReadLogLimited(body, replay.Limits{MaxEvents: h.opts.MaxLogEvents})
	if err != nil {
		var le *limitError
		if errors.Is(err, replay.ErrLogTooLarge) || errors.As(err, &le) {
			writeErrorCode(w, http.StatusBadRequest, CodePayloadTooLarge,
				fmt.Errorf("event log: %w", err))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("event log: %w", err))
		return
	}

	applied, aerr := s.Apply(events)
	if applied > 0 {
		var buf bytes.Buffer
		if werr := replay.WriteLog(&buf, events[:applied]); werr == nil {
			if perr := h.store.AppendSessionLog(s.ID(), buf.Bytes()); perr != nil {
				h.opts.Logf("session %s: append log: %v", s.ID(), perr)
			}
		}
	}
	if aerr != nil {
		writeError(w, http.StatusUnprocessableEntity,
			fmt.Errorf("applied %d of %d events, then: %w", applied, len(events), aerr))
		return
	}
	info := s.Info()
	writeJSON(w, sessionEventsResponse{
		ID:      s.ID(),
		Applied: applied,
		Events:  info.Events,
		Stats:   info.Stats,
	})
}

// sessionAudit reads the duplicate-role groups off the live indices —
// no engine run. ?mode=async submits the audit to the jobs pool
// instead and answers 202 with the job snapshot, putting session
// audits on the same lifecycle (poll, result, cancel) as engine runs.
func (h *handler) sessionAudit(w http.ResponseWriter, r *http.Request) {
	s, ok := h.lookupSession(w, r)
	if !ok {
		return
	}
	if mode := r.URL.Query().Get("mode"); mode == "async" {
		j, queued, err := h.jobs.Submit("session-audit", func(_ context.Context, progress func(string, float64)) (any, error) {
			audit := s.Audit()
			if progress != nil {
				progress("audit", 1)
			}
			return audit, nil
		})
		switch {
		case errors.Is(err, jobs.ErrQueueFull):
			w.Header().Set("Retry-After", retryAfterSeconds(h.opts.RetryAfter))
			writeError(w, http.StatusTooManyRequests,
				fmt.Errorf("job queue full (%d queued), retry later", h.opts.JobQueueDepth))
			return
		case err != nil:
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("submit audit job: %w", err))
			return
		}
		w.Header().Set("Location", "/v1/jobs/"+j.ID())
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		writeJSON(w, queued)
		return
	}
	writeJSON(w, s.Audit())
}

// driftRequest names two registered snapshots. The response is
// session.DriftReport — one schema shared with the rolediet drift
// subcommand.
type driftRequest struct {
	BeforeRef string `json:"before_ref"`
	AfterRef  string `json:"after_ref"`
}

// drift audits the movement between two registered datasets:
// Reconcile computes the event delta, the delta replays through a
// session of before, and the response reports the after-side duplicate
// groups plus which groups appeared and disappeared. The work is
// O(corpus) to diff the snapshots but the audit itself never runs the
// engine, and the result flows through the single-flight cache keyed
// on both digests — the second identical request is a byte-identical
// cache hit.
func (h *handler) drift(w http.ResponseWriter, r *http.Request) {
	body, ok := h.readBody(w, r)
	if !ok {
		return
	}
	var req driftRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("parse request: %w", err))
		return
	}
	if req.BeforeRef == "" || req.AfterRef == "" {
		writeError(w, http.StatusBadRequest,
			errors.New(`drift needs {"before_ref": "<digest>", "after_ref": "<digest>"}`))
		return
	}
	before, beforeDigest, ok := h.resolveRef(w, r, req.BeforeRef)
	if !ok {
		return
	}
	after, afterDigest, ok := h.resolveRef(w, r, req.AfterRef)
	if !ok {
		return
	}

	started := time.Now()
	raw, hit, fp, err := h.driftCached(r.Context(), beforeDigest, afterDigest, before, after)
	if h.declog != nil {
		d := continuous.Decision{
			Source:        "api",
			Kind:          "drift",
			Dataset:       beforeDigest + "+" + afterDigest,
			Fingerprint:   fp,
			CacheHit:      hit,
			DurationNanos: time.Since(started).Nanoseconds(),
		}
		if err != nil {
			d.Error = err.Error()
		}
		h.declog.Append(d)
	}
	if err != nil {
		writeEngineError(w, err)
		return
	}
	w.Header().Set("X-Cache", cacheHeader(hit))
	writeRawJSON(w, raw)
}

// driftCached computes (or serves from cache) the drift report between
// two registered snapshots — the one compute path shared by POST
// /v1/drift and the continuous-audit backend, so a scheduled drift
// check of an already-answered digest pair is a cache hit.
func (h *handler) driftCached(ctx context.Context, beforeDigest, afterDigest string,
	before, after *rbac.Dataset) (raw []byte, hit bool, fp string, err error) {
	fp, err = store.Fingerprint(struct{}{}, "drift-v1")
	if err != nil {
		return nil, false, "", err
	}
	// The "+"-joined dataset key ties the cache line to both digests:
	// deleting either snapshot bars late admission, same as /v1/diff.
	key := store.Key{Dataset: beforeDigest + "+" + afterDigest, Fingerprint: fp, Kind: "drift"}
	raw, hit, err = h.store.Result(ctx, key, func(ctx context.Context) ([]byte, error) {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		resp, derr := session.Drift(beforeDigest, afterDigest, before, after)
		if derr != nil {
			return nil, derr
		}
		return json.Marshal(resp)
	})
	return raw, hit, fp, err
}
