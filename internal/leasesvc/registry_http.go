package leasesvc

import (
	"context"
	"net/http"
	"time"
)

// Worker-registry wire schema (documented in EXPERIMENTS.md):
//
//	POST /v1/workers/register    {id, owner, slots, ttl_ms}
//	    200 {token, ttl_ms} | 400
//	POST /v1/workers/beat        {id, token, seq}
//	    200 {placements:[{campaign,dir,shard,of}...]} | 409 {error, fenced:true} | 404 | 400
//	POST /v1/workers/deregister  {id, token}
//	    200 {} | 404 | 400
//	GET  /v1/workers
//	    200 [WorkerView...]
//	GET  /v1/stats
//	    200 {lease_acquires, lease_beats, fenced_rejections, worker_beats, workers_registered}
//
// The same conventions as the lease routes: TTLs and ages travel as
// integer milliseconds, 409 is the only semantic "no" (fenced — a
// superseded registration) and is never retried by the client.

type registerWorkerReq struct {
	ID        string `json:"id"`
	Owner     string `json:"owner"`
	Slots     int    `json:"slots"`
	TTLMillis int64  `json:"ttl_ms"`
}

type workerBeatReq struct {
	ID    string `json:"id"`
	Token uint64 `json:"token"`
	Seq   uint64 `json:"seq"`
}

type workerBeatResp struct {
	Placements []Placement `json:"placements"`
}

type deregisterWorkerReq struct {
	ID    string `json:"id"`
	Token uint64 `json:"token"`
}

// wireWorker is WorkerView with durations flattened to milliseconds.
type wireWorker struct {
	ID             string      `json:"id"`
	Owner          string      `json:"owner,omitempty"`
	Token          uint64      `json:"token"`
	Alive          bool        `json:"alive"`
	Slots          int         `json:"slots"`
	Seq            uint64      `json:"seq"`
	SinceAdvanceMS int64       `json:"since_advance_ms"`
	TTLMillis      int64       `json:"ttl_ms"`
	Assignments    []Placement `json:"assignments,omitempty"`
}

func toWireWorker(v WorkerView) wireWorker {
	return wireWorker{
		ID: v.ID, Owner: v.Owner, Token: v.Token, Alive: v.Alive,
		Slots: v.Slots, Seq: v.Seq,
		SinceAdvanceMS: v.SinceAdvance.Milliseconds(),
		TTLMillis:      v.TTL.Milliseconds(),
		Assignments:    v.Assignments,
	}
}

// registerRegistry mounts the worker-registry and stats routes; called
// from Register so every mount of the lease API carries the registry.
func (s *Service) registerRegistry(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/workers/register", s.handleRegisterWorker)
	mux.HandleFunc("POST /v1/workers/beat", s.handleWorkerBeat)
	mux.HandleFunc("POST /v1/workers/deregister", s.handleDeregisterWorker)
	mux.HandleFunc("GET /v1/workers", s.handleWorkers)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
}

func (s *Service) handleRegisterWorker(w http.ResponseWriter, r *http.Request) {
	var req registerWorkerReq
	if !decodeBody(w, r, &req) {
		return
	}
	grant, err := s.RegisterWorker(r.Context(), req.ID, req.Owner, req.Slots, time.Duration(req.TTLMillis)*time.Millisecond)
	writeResult(w, err, acquireResp{Token: grant.Token, TTLMillis: grant.TTL.Milliseconds()})
}

func (s *Service) handleWorkerBeat(w http.ResponseWriter, r *http.Request) {
	var req workerBeatReq
	if !decodeBody(w, r, &req) {
		return
	}
	ps, err := s.WorkerBeat(r.Context(), req.ID, req.Token, req.Seq)
	if ps == nil {
		ps = []Placement{}
	}
	writeResult(w, err, workerBeatResp{Placements: ps})
}

func (s *Service) handleDeregisterWorker(w http.ResponseWriter, r *http.Request) {
	var req deregisterWorkerReq
	if !decodeBody(w, r, &req) {
		return
	}
	err := s.DeregisterWorker(r.Context(), req.ID, req.Token)
	writeResult(w, err, struct{}{})
}

func (s *Service) handleWorkers(w http.ResponseWriter, _ *http.Request) {
	views := s.Workers()
	out := make([]wireWorker, len(views))
	for i, v := range views {
		out[i] = toWireWorker(v)
	}
	writeLeaseJSON(w, http.StatusOK, out)
}

func (s *Service) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeLeaseJSON(w, http.StatusOK, s.StatsSnapshot())
}

// RegisterWorker implements RegistryAPI over HTTP.
func (c *Client) RegisterWorker(ctx context.Context, id, owner string, slots int, ttl time.Duration) (Grant, error) {
	var resp acquireResp
	err := c.call(ctx, "/v1/workers/register", "worker-register/"+id, registerWorkerReq{
		ID: id, Owner: owner, Slots: slots, TTLMillis: ttl.Milliseconds(),
	}, &resp)
	if err != nil {
		return Grant{}, err
	}
	return Grant{Token: resp.Token, TTL: time.Duration(resp.TTLMillis) * time.Millisecond}, nil
}

// WorkerBeat implements RegistryAPI over HTTP.
func (c *Client) WorkerBeat(ctx context.Context, id string, token, seq uint64) ([]Placement, error) {
	var resp workerBeatResp
	err := c.call(ctx, "/v1/workers/beat", "worker-beat/"+id, workerBeatReq{
		ID: id, Token: token, Seq: seq,
	}, &resp)
	if err != nil {
		return nil, err
	}
	return resp.Placements, nil
}

// DeregisterWorker implements RegistryAPI over HTTP.
func (c *Client) DeregisterWorker(ctx context.Context, id string, token uint64) error {
	return c.call(ctx, "/v1/workers/deregister", "worker-deregister/"+id, deregisterWorkerReq{
		ID: id, Token: token,
	}, nil)
}

// Both halves of the wire implement the registry protocol.
var (
	_ RegistryAPI = (*Service)(nil)
	_ RegistryAPI = (*Client)(nil)
)
