package leasesvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"time"

	"rowhammer/internal/campaign"
)

// Wire schema (documented in EXPERIMENTS.md):
//
//	POST /v1/leases/acquire  {campaign, shard, of, owner, ttl_ms}
//	    200 {token, ttl_ms} | 409 {error, held:true, owner, seq} | 400
//	POST /v1/leases/beat     {campaign, shard, of, token, seq, done, total}
//	    200 {} | 409 {error, fenced:true} | 404 | 400
//	POST /v1/leases/release  {campaign, shard, of, token}
//	    200 {} | 404 | 400
//	GET  /v1/leases[?campaign=H]
//	    200 [View...]
//
// TTLs travel as integer milliseconds; tokens and sequence numbers as
// plain integers. 409 is the protocol's only "semantic no" — held on
// acquire, fenced on beat — and is never retried by the client; 5xx
// and transport errors are retried with jittered exponential backoff.

// maxBodyBytes bounds every lease request body. Lease payloads are a
// few hundred bytes; anything larger is hostile or broken.
const maxBodyBytes = 64 << 10

type acquireReq struct {
	Campaign  string `json:"campaign"`
	Shard     int    `json:"shard"`
	Of        int    `json:"of"`
	Owner     string `json:"owner"`
	TTLMillis int64  `json:"ttl_ms"`
}

type acquireResp struct {
	Token     uint64 `json:"token"`
	TTLMillis int64  `json:"ttl_ms"`
}

type beatReq struct {
	Campaign string `json:"campaign"`
	Shard    int    `json:"shard"`
	Of       int    `json:"of"`
	Token    uint64 `json:"token"`
	Seq      uint64 `json:"seq"`
	Done     int    `json:"done"`
	Total    int    `json:"total"`
}

type releaseReq struct {
	Campaign string `json:"campaign"`
	Shard    int    `json:"shard"`
	Of       int    `json:"of"`
	Token    uint64 `json:"token"`
}

// errResp is the error body; Held/Fenced let the client reconstruct
// the sentinel error without string matching.
type errResp struct {
	Error  string `json:"error"`
	Held   bool   `json:"held,omitempty"`
	Fenced bool   `json:"fenced,omitempty"`
	Owner  string `json:"owner,omitempty"`
	Seq    uint64 `json:"seq,omitempty"`
}

// wireView is View with durations flattened to milliseconds, so the
// wire schema is host-language neutral.
type wireView struct {
	Campaign       string `json:"campaign"`
	Shard          int    `json:"shard"`
	Of             int    `json:"of"`
	Held           bool   `json:"held"`
	Token          uint64 `json:"token"`
	Owner          string `json:"owner,omitempty"`
	Seq            uint64 `json:"seq"`
	Done           int    `json:"done"`
	Total          int    `json:"total"`
	SinceAdvanceMS int64  `json:"since_advance_ms"`
	TTLMillis      int64  `json:"ttl_ms"`
}

func toWire(v View) wireView {
	return wireView{
		Campaign: v.Campaign, Shard: v.Shard, Of: v.Of,
		Held: v.Held, Token: v.Token, Owner: v.Owner,
		Seq: v.Seq, Done: v.Done, Total: v.Total,
		SinceAdvanceMS: v.SinceAdvance.Milliseconds(),
		TTLMillis:      v.TTL.Milliseconds(),
	}
}

func fromWire(w wireView) View {
	return View{
		Key:  Key{Campaign: w.Campaign, Shard: w.Shard, Of: w.Of},
		Held: w.Held, Token: w.Token, Owner: w.Owner,
		Seq: w.Seq, Done: w.Done, Total: w.Total,
		SinceAdvance: time.Duration(w.SinceAdvanceMS) * time.Millisecond,
		TTL:          time.Duration(w.TTLMillis) * time.Millisecond,
	}
}

// Register mounts the lease API on mux. The routes are disjoint from
// internal/server's campaign/artifact routes, so rhserved mounts both
// on one mux and one listener.
func (s *Service) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/leases/acquire", s.handleAcquire)
	mux.HandleFunc("POST /v1/leases/beat", s.handleBeat)
	mux.HandleFunc("POST /v1/leases/release", s.handleRelease)
	mux.HandleFunc("GET /v1/leases", s.handleList)
	s.registerRegistry(mux)
}

// Handler returns a standalone handler serving only the lease API —
// what `rhfleet -lease-listen` self-hosts.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	s.Register(mux)
	return mux
}

// decodeBody decodes a bounded JSON request body. A false return
// means the response has been written.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		code := http.StatusBadRequest
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeLeaseErr(w, code, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

func writeLeaseJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeLeaseErr(w http.ResponseWriter, code int, err error) {
	resp := errResp{Error: err.Error()}
	var held *HeldError
	switch {
	case errors.As(err, &held):
		resp.Held, resp.Owner, resp.Seq = true, held.Owner, held.Seq
	case errors.Is(err, ErrHeld):
		resp.Held = true
	case errors.Is(err, ErrFenced):
		resp.Fenced = true
	}
	writeLeaseJSON(w, code, resp)
}

// writeResult answers a POST with its Service call's outcome: ok as
// 200 JSON on success; otherwise the error under the one status map
// every route shares — 409 for a lease held by another owner (ErrHeld)
// or a superseded fencing token (ErrFenced), 404 for a lease or worker
// the service never knew (ErrUnknown), 400 for anything else (a
// malformed key, an empty worker id).
func writeResult(w http.ResponseWriter, err error, ok any) {
	switch {
	case err == nil:
		writeLeaseJSON(w, http.StatusOK, ok)
	case errors.Is(err, ErrHeld), errors.Is(err, ErrFenced):
		writeLeaseErr(w, http.StatusConflict, err)
	case errors.Is(err, ErrUnknown):
		writeLeaseErr(w, http.StatusNotFound, err)
	default:
		writeLeaseErr(w, http.StatusBadRequest, err)
	}
}

func (s *Service) handleAcquire(w http.ResponseWriter, r *http.Request) {
	var req acquireReq
	if !decodeBody(w, r, &req) {
		return
	}
	key := Key{Campaign: req.Campaign, Shard: req.Shard, Of: req.Of}
	grant, err := s.Acquire(r.Context(), key, req.Owner, time.Duration(req.TTLMillis)*time.Millisecond)
	writeResult(w, err, acquireResp{Token: grant.Token, TTLMillis: grant.TTL.Milliseconds()})
}

func (s *Service) handleBeat(w http.ResponseWriter, r *http.Request) {
	var req beatReq
	if !decodeBody(w, r, &req) {
		return
	}
	key := Key{Campaign: req.Campaign, Shard: req.Shard, Of: req.Of}
	err := s.Beat(r.Context(), key, req.Token, Beat{Seq: req.Seq, Done: req.Done, Total: req.Total})
	writeResult(w, err, struct{}{})
}

func (s *Service) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req releaseReq
	if !decodeBody(w, r, &req) {
		return
	}
	key := Key{Campaign: req.Campaign, Shard: req.Shard, Of: req.Of}
	err := s.Release(r.Context(), key, req.Token)
	writeResult(w, err, struct{}{})
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	views := s.List()
	if campaignHash := r.URL.Query().Get("campaign"); campaignHash != "" {
		filtered := views[:0]
		for _, v := range views {
			if v.Campaign == campaignHash {
				filtered = append(filtered, v)
			}
		}
		views = filtered
	}
	sort.Slice(views, func(i, j int) bool {
		if views[i].Campaign != views[j].Campaign {
			return views[i].Campaign < views[j].Campaign
		}
		return views[i].Shard < views[j].Shard
	})
	out := make([]wireView, len(views))
	for i, v := range views {
		out[i] = toWire(v)
	}
	writeLeaseJSON(w, http.StatusOK, out)
}

// Client is the worker-side lease API over HTTP, hardened for real
// networks: every call carries a per-call timeout, transport errors
// and 5xx responses are retried with the campaign engine's jittered
// exponential backoff, and 4xx responses are mapped back to the
// sentinel errors and never retried — a "held" or "fenced" answer is
// the protocol speaking, not the network failing.
type Client struct {
	// BaseURL is the service root, e.g. "http://10.0.0.1:8077".
	BaseURL string
	// HTTP is the underlying client; http.DefaultClient when nil. The
	// netchaos harness injects faults by swapping its Transport.
	HTTP *http.Client
	// Timeout bounds one HTTP attempt (default 5s).
	Timeout time.Duration
	// Retries is how many times a retryable failure is retried
	// (default 4 — five attempts total).
	Retries int
	// Backoff is the base retry backoff (default 100ms); the jitter is
	// derived deterministically from (Seed, call key, attempt) via
	// campaign.Backoff.
	Backoff time.Duration
	// Seed keys the backoff jitter (0 is a valid seed).
	Seed uint64
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 5 * time.Second
}

func (c *Client) retries() int {
	if c.Retries > 0 {
		return c.Retries
	}
	return 4
}

func (c *Client) backoffBase() time.Duration {
	if c.Backoff > 0 {
		return c.Backoff
	}
	return 100 * time.Millisecond
}

// retryableStatus reports a response worth retrying: the server
// failed, not the protocol.
func retryableStatus(code int) bool { return code >= 500 }

// call POSTs one bounded, retried request and decodes the response
// into out (when non-nil). Protocol refusals (4xx) surface as the
// reconstructed sentinel errors.
func (c *Client) call(ctx context.Context, path, key string, req, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	var lastErr error
	for attempt := 1; attempt <= c.retries()+1; attempt++ {
		if attempt > 1 {
			delay := campaign.Backoff(c.backoffBase(), c.Seed, key, attempt-1)
			t := time.NewTimer(delay)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			}
		}
		err := c.once(ctx, path, body, out)
		if err == nil {
			return nil
		}
		// Protocol answers are final; only infrastructure failures
		// retry.
		if errors.Is(err, ErrHeld) || errors.Is(err, ErrFenced) || errors.Is(err, ErrUnknown) || errors.Is(err, errBadRequest) {
			return err
		}
		lastErr = err
		if ctx.Err() != nil {
			return fmt.Errorf("%w (last attempt: %v)", ctx.Err(), lastErr)
		}
	}
	return fmt.Errorf("leasesvc: %s failed after %d attempt(s): %w", path, c.retries()+1, lastErr)
}

// errBadRequest marks a 4xx that carries no protocol sentinel — the
// request itself is malformed and retrying cannot help.
var errBadRequest = errors.New("leasesvc: request rejected")

// once performs a single timed attempt.
func (c *Client) once(ctx context.Context, path string, body []byte, out any) error {
	callCtx, cancel := context.WithTimeout(ctx, c.timeout())
	defer cancel()
	req, err := http.NewRequestWithContext(callCtx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusOK {
		if out == nil {
			return nil
		}
		return json.Unmarshal(raw, out)
	}
	if retryableStatus(resp.StatusCode) {
		return fmt.Errorf("leasesvc: %s: HTTP %d: %s", path, resp.StatusCode, firstLine(raw))
	}
	var er errResp
	_ = json.Unmarshal(raw, &er)
	msg := er.Error
	if msg == "" {
		msg = firstLine(raw)
	}
	switch {
	case er.Held:
		return fmt.Errorf("%w: %s (owner %s, seq %d)", ErrHeld, msg, er.Owner, er.Seq)
	case er.Fenced:
		return fmt.Errorf("%w: %s", ErrFenced, msg)
	case resp.StatusCode == http.StatusNotFound:
		return fmt.Errorf("%w: %s", ErrUnknown, msg)
	default:
		return fmt.Errorf("%w: HTTP %d: %s", errBadRequest, resp.StatusCode, msg)
	}
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	const max = 200
	if len(b) > max {
		b = b[:max]
	}
	return string(b)
}

// Acquire implements API over HTTP.
func (c *Client) Acquire(ctx context.Context, key Key, owner string, ttl time.Duration) (Grant, error) {
	var resp acquireResp
	err := c.call(ctx, "/v1/leases/acquire", "acquire/"+key.String(), acquireReq{
		Campaign: key.Campaign, Shard: key.Shard, Of: key.Of,
		Owner: owner, TTLMillis: ttl.Milliseconds(),
	}, &resp)
	if err != nil {
		return Grant{}, err
	}
	return Grant{Token: resp.Token, TTL: time.Duration(resp.TTLMillis) * time.Millisecond}, nil
}

// Beat implements API over HTTP.
func (c *Client) Beat(ctx context.Context, key Key, token uint64, b Beat) error {
	return c.call(ctx, "/v1/leases/beat", "beat/"+key.String(), beatReq{
		Campaign: key.Campaign, Shard: key.Shard, Of: key.Of,
		Token: token, Seq: b.Seq, Done: b.Done, Total: b.Total,
	}, nil)
}

// Release implements API over HTTP.
func (c *Client) Release(ctx context.Context, key Key, token uint64) error {
	return c.call(ctx, "/v1/leases/release", "release/"+key.String(), releaseReq{
		Campaign: key.Campaign, Shard: key.Shard, Of: key.Of, Token: token,
	}, nil)
}

// View implements API over HTTP via the list endpoint.
func (c *Client) View(ctx context.Context, key Key) (View, bool, error) {
	callCtx, cancel := context.WithTimeout(ctx, c.timeout())
	defer cancel()
	req, err := http.NewRequestWithContext(callCtx, http.MethodGet,
		c.BaseURL+"/v1/leases?campaign="+key.Campaign, nil)
	if err != nil {
		return View{}, false, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return View{}, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return View{}, false, fmt.Errorf("leasesvc: list: HTTP %d", resp.StatusCode)
	}
	var views []wireView
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		return View{}, false, err
	}
	for _, wv := range views {
		if wv.Campaign == key.Campaign && wv.Shard == key.Shard && wv.Of == key.Of {
			return fromWire(wv), true, nil
		}
	}
	return View{Key: key}, false, nil
}

// Both halves of the wire implement the same protocol surface.
var (
	_ API = (*Service)(nil)
	_ API = (*Client)(nil)
)

// DefaultOwner labels this process for lease diagnostics.
func DefaultOwner() string {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	return fmt.Sprintf("%s:%d", host, os.Getpid())
}
