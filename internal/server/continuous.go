package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/continuous"
	"repro/internal/core"
	"repro/internal/session"
	"repro/internal/store"
)

// The continuous-audit resource surface: schedules fire recurring
// analyses of registered snapshots on the shared jobs pool, alert
// rules trip on findings spikes / duplicate-group drift / recall
// regressions, webhook sinks receive tripped alerts through the
// hardened fleet client patterns, and the decision log records every
// engine decision append-only. The subsystem itself lives in
// internal/continuous; this file lends it the engine through Backend
// callbacks (so scheduled runs share the server's result cache) and
// exposes the four resource kinds under the v1 contract.

// initContinuous opens the decision log, builds the continuous-audit
// manager around the handler's engine surface, and registers the
// subsystem's metrics. Called from NewHandler after the store, jobs
// pool, and session manager exist but before routes are registered.
func (h *handler) initContinuous() {
	decisions := h.metrics.Counter("rolediet_decisions_total",
		"Decisions appended to the decision log.")
	decisionDrops := h.metrics.Counter("rolediet_decision_drops_total",
		"Decisions dropped because the decision log's flush buffer saturated.")
	l, err := continuous.OpenLog(continuous.LogOptions{
		Path:          h.opts.DecisionLogPath,
		BufferSize:    h.opts.DecisionBuffer,
		FlushInterval: h.opts.DecisionFlushInterval,
		OnAppend:      decisions.With().Inc,
		OnDrop:        decisionDrops.With().Inc,
		Logf:          h.opts.Logf,
	})
	if err != nil {
		// A broken log path must not take the daemon down with it; the
		// service runs, decisions just are not recorded.
		h.opts.Logf("continuous: decision log disabled: %v", err)
	} else {
		h.declog = l
	}

	fires := h.metrics.Counter("rolediet_schedule_fires_total",
		"Continuous-audit schedule fires.")
	trips := h.metrics.Counter("rolediet_alert_trips_total",
		"Alert rule trips, by rule type.", "type")
	deliveries := h.metrics.Counter("rolediet_sink_deliveries_total",
		"Webhook sink delivery outcomes (after retries), by outcome.", "outcome")

	m, err := continuous.NewManager(continuous.Config{
		Backend: continuous.Backend{
			Resolve:       h.backendResolve,
			SessionExists: h.backendSessionExists,
			Snapshot:      h.backendSnapshot,
			Analyze:       h.backendAnalyze,
			Drift:         h.backendDrift,
		},
		Jobs: h.jobs,
		Log:  h.declog,
		Sink: continuous.SinkConfig{
			Attempts:         h.opts.SinkAttempts,
			Timeout:          h.opts.SinkTimeout,
			BreakerThreshold: h.opts.SinkBreakerThreshold,
			BreakerCooldown:  h.opts.SinkBreakerCooldown,
			Transport:        h.opts.SinkTransport,
		},
		MinInterval: h.opts.ScheduleMinInterval,
		Hooks: continuous.Hooks{
			ScheduleFire: fires.With().Inc,
			AlertTrip:    func(ruleType string) { trips.With(ruleType).Inc() },
			SinkDelivery: func(ok bool) {
				outcome := "ok"
				if !ok {
					outcome = "failed"
				}
				deliveries.With(outcome).Inc()
			},
		},
		Logf:        h.opts.Logf,
		BaseContext: h.opts.BaseContext,
	})
	if err != nil {
		// Unreachable with a complete backend; degrade loudly, not fatally.
		h.opts.Logf("continuous: subsystem disabled: %v", err)
		return
	}
	h.cont = m
	h.metrics.GaugeFunc("rolediet_schedules",
		"Continuous-audit schedules registered.",
		func() float64 { return float64(h.cont.Stats().Schedules) })
	h.metrics.GaugeFunc("rolediet_alert_rules",
		"Alert rules registered.",
		func() float64 { return float64(h.cont.Stats().Rules) })
	h.metrics.GaugeFunc("rolediet_sinks",
		"Webhook sinks registered.",
		func() float64 { return float64(h.cont.Stats().Sinks) })
}

// registerContinuous wires the continuous-audit resources. Called from
// NewHandler.
func (h *handler) registerContinuous() {
	h.handle("POST /v1/schedules", h.scheduleCreate)
	h.handle("GET /v1/schedules", h.scheduleList)
	h.handle("GET /v1/schedules/{id}", h.scheduleGet)
	h.handle("DELETE /v1/schedules/{id}", h.scheduleDelete)
	h.handle("POST /v1/alerts", h.alertCreate)
	h.handle("GET /v1/alerts", h.alertList)
	h.handle("GET /v1/alerts/{id}", h.alertGet)
	h.handle("DELETE /v1/alerts/{id}", h.alertDelete)
	h.handle("POST /v1/sinks", h.sinkCreate)
	h.handle("GET /v1/sinks", h.sinkList)
	h.handle("GET /v1/sinks/{id}", h.sinkGet)
	h.handle("DELETE /v1/sinks/{id}", h.sinkDelete)
	h.handle("GET /v1/decisions", h.decisionList)
}

// Backend callbacks — the engine surface the subsystem borrows. They
// run on scheduler goroutines and job workers, never on a request, so
// none of them may touch an http.ResponseWriter.

// backendResolve normalises a dataset_ref to its bare digest and
// ensures the snapshot is held locally (fleet fetch-through applies).
func (h *handler) backendResolve(ctx context.Context, ref string) (string, error) {
	digest, err := store.ParseDigest(ref)
	if err != nil {
		return "", err
	}
	if _, _, ok := h.store.GetDataset(digest); ok {
		return digest, nil
	}
	if h.fleet.Enabled() {
		raw, peer, ferr := h.fleet.FetchDataset(ctx, digest)
		if ferr != nil {
			return "", fmt.Errorf("dataset %s: %w", digest, ferr)
		}
		if _, perr := h.store.PutCanonical(digest, raw); perr != nil {
			h.opts.Logf("fleet: dataset %s fetched from %s not cached locally: %v", digest, peer, perr)
		}
		return digest, nil
	}
	return "", fmt.Errorf("dataset %s not found (never registered, deleted, or evicted)", digest)
}

// backendSessionExists reports whether a mutation session id is live.
func (h *handler) backendSessionExists(id string) bool {
	_, err := h.sessions.Get(id)
	return err == nil
}

// backendSnapshot registers the current dataset of a live session
// content-addressed and returns the digest. The session hands out a
// clone, which the store keeps, so later session mutations cannot reach
// the stored snapshot.
func (h *handler) backendSnapshot(_ context.Context, sessionID string) (string, error) {
	s, err := h.sessions.Get(sessionID)
	if err != nil {
		return "", err
	}
	ds := s.Dataset()
	digest, canonical, err := store.DigestOf(ds)
	if err != nil {
		return "", err
	}
	if _, err := h.store.PutDigested(digest, canonical, ds); err != nil {
		return "", err
	}
	return digest, nil
}

// backendAnalyze runs (or serves from cache) a full analysis of a
// registered digest — the exact runKindCached path the HTTP endpoints
// use, so a scheduled fire of an unchanged digest is a cache hit and
// its response bytes match what a client would have received. The
// continuous manager logs the decision itself (with tripped-alert
// ids), so this goes through the unlogged path.
func (h *handler) backendAnalyze(ctx context.Context, digest string, opts core.Options) (*core.Report, continuous.Meta, error) {
	ds, _, ok := h.store.GetDataset(digest)
	if !ok {
		return nil, continuous.Meta{}, fmt.Errorf("dataset %s not found", digest)
	}
	req := &v1Request{dataset: ds, digest: digest, opts: opts}
	if req.opts.Workers == 0 {
		req.opts.Workers = h.opts.DefaultWorkers
	}
	out, hit, err := h.runKindCached(ctx, kindAnalyze, req, nil)
	if err != nil {
		return nil, continuous.Meta{}, err
	}
	raw, ok := out.(rawResult)
	if !ok {
		return nil, continuous.Meta{}, fmt.Errorf("analyze returned an uncacheable result")
	}
	var rep core.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, continuous.Meta{}, fmt.Errorf("decode cached report: %w", err)
	}
	return &rep, continuous.Meta{Fingerprint: req.fp, CacheHit: hit}, nil
}

// backendDrift computes the O(delta) drift report between two
// registered digests through the same cache line POST /v1/drift uses.
func (h *handler) backendDrift(ctx context.Context, before, after string) (*session.DriftReport, continuous.Meta, error) {
	beforeDS, _, ok := h.store.GetDataset(before)
	if !ok {
		return nil, continuous.Meta{}, fmt.Errorf("dataset %s not found", before)
	}
	afterDS, _, ok := h.store.GetDataset(after)
	if !ok {
		return nil, continuous.Meta{}, fmt.Errorf("dataset %s not found", after)
	}
	raw, hit, fp, err := h.driftCached(ctx, before, after, beforeDS, afterDS)
	if err != nil {
		return nil, continuous.Meta{}, err
	}
	var rep session.DriftReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, continuous.Meta{}, fmt.Errorf("decode cached drift report: %w", err)
	}
	return &rep, continuous.Meta{Fingerprint: fp, CacheHit: hit}, nil
}

// writeContinuousError maps the subsystem's sentinel errors onto the
// v1 error contract.
func writeContinuousError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, continuous.ErrInvalid):
		writeError(w, http.StatusBadRequest, err)
	case errors.Is(err, continuous.ErrUnknownReference):
		writeErrorCode(w, http.StatusUnprocessableEntity, CodeUnknownReference, err)
	case errors.Is(err, continuous.ErrNotFound):
		writeError(w, http.StatusNotFound, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

// decodeInto reads and unmarshals a small JSON resource body.
func (h *handler) decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	body, ok := h.readBody(w, r)
	if !ok {
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("parse request: %w", err))
		return false
	}
	return true
}

// created writes the standard 201 for a new resource: Location header
// plus the resource body.
func created(w http.ResponseWriter, location string, v any) {
	w.Header().Set("Location", location)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, v)
}

// scheduleCreate registers a recurring audit:
// {"dataset_ref": "<digest>", "interval": "30s", ...}.
func (h *handler) scheduleCreate(w http.ResponseWriter, r *http.Request) {
	var s continuous.Schedule
	if !h.decodeInto(w, r, &s) {
		return
	}
	out, err := h.cont.CreateSchedule(r.Context(), s)
	if err != nil {
		writeContinuousError(w, err)
		return
	}
	created(w, "/v1/schedules/"+out.ID, out)
}

func (h *handler) scheduleList(w http.ResponseWriter, r *http.Request) {
	offset, size, ok := pageParams(w, r)
	if !ok {
		return
	}
	items, next := pageSlice(h.cont.ListSchedules(), offset, size)
	writeJSON(w, listPage{Items: items, NextPageToken: next})
}

func (h *handler) scheduleGet(w http.ResponseWriter, r *http.Request) {
	s, ok := h.cont.GetSchedule(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("schedule %q not found", r.PathValue("id")))
		return
	}
	writeJSON(w, s)
}

// scheduleDelete is idempotent: deleting an unknown id is the same
// 204 as deleting a live one — the state the client asked for holds
// either way.
func (h *handler) scheduleDelete(w http.ResponseWriter, r *http.Request) {
	h.cont.DeleteSchedule(r.PathValue("id"))
	w.WriteHeader(http.StatusNoContent)
}

// alertCreate registers an alert rule:
// {"type": "spike"|"drift"|"recall", "threshold": N, ...}.
func (h *handler) alertCreate(w http.ResponseWriter, r *http.Request) {
	var rule continuous.Rule
	if !h.decodeInto(w, r, &rule) {
		return
	}
	out, err := h.cont.CreateRule(rule)
	if err != nil {
		writeContinuousError(w, err)
		return
	}
	created(w, "/v1/alerts/"+out.ID, out)
}

func (h *handler) alertList(w http.ResponseWriter, r *http.Request) {
	offset, size, ok := pageParams(w, r)
	if !ok {
		return
	}
	items, next := pageSlice(h.cont.ListRules(), offset, size)
	writeJSON(w, listPage{Items: items, NextPageToken: next})
}

func (h *handler) alertGet(w http.ResponseWriter, r *http.Request) {
	rule, ok := h.cont.GetRule(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("alert rule %q not found", r.PathValue("id")))
		return
	}
	writeJSON(w, rule)
}

func (h *handler) alertDelete(w http.ResponseWriter, r *http.Request) {
	h.cont.DeleteRule(r.PathValue("id"))
	w.WriteHeader(http.StatusNoContent)
}

// sinkCreate registers a webhook sink: {"url": "https://...", "name": "..."}.
func (h *handler) sinkCreate(w http.ResponseWriter, r *http.Request) {
	var s continuous.Sink
	if !h.decodeInto(w, r, &s) {
		return
	}
	out, err := h.cont.CreateSink(s)
	if err != nil {
		writeContinuousError(w, err)
		return
	}
	created(w, "/v1/sinks/"+out.ID, out)
}

func (h *handler) sinkList(w http.ResponseWriter, r *http.Request) {
	offset, size, ok := pageParams(w, r)
	if !ok {
		return
	}
	items, next := pageSlice(h.cont.ListSinks(), offset, size)
	writeJSON(w, listPage{Items: items, NextPageToken: next})
}

func (h *handler) sinkGet(w http.ResponseWriter, r *http.Request) {
	s, ok := h.cont.GetSink(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("sink %q not found", r.PathValue("id")))
		return
	}
	writeJSON(w, s)
}

func (h *handler) sinkDelete(w http.ResponseWriter, r *http.Request) {
	h.cont.DeleteSink(r.PathValue("id"))
	w.WriteHeader(http.StatusNoContent)
}

// decisionList pages through the decision log's in-memory window
// oldest-first. The page token is the last seen sequence number, so a
// poller can tail the log: pass the previous response's
// next_page_token (or the seq of the last decision it processed) and
// receive only what happened since.
func (h *handler) decisionList(w http.ResponseWriter, r *http.Request) {
	afterSeq, size, ok := pageParams(w, r)
	if !ok {
		return
	}
	if h.declog == nil {
		writeJSON(w, listPage{Items: []continuous.Decision{}})
		return
	}
	items := h.declog.List(afterSeq, size)
	if items == nil {
		items = []continuous.Decision{}
	}
	next := ""
	if len(items) == size {
		next = strconv.FormatInt(items[len(items)-1].Seq, 10)
	}
	writeJSON(w, listPage{Items: items, NextPageToken: next})
}
