package leasesvc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestPOSTRouteErrors pins, per POST route, the status and body bytes
// of every error its Service method can return — the answers clients
// decode back into the sentinel errors — through the real handlers.
func TestPOSTRouteErrors(t *testing.T) {
	const key = `"campaign":"c1","shard":0,"of":2`
	k := Key{Campaign: "c1", Shard: 0, Of: 2}
	type row struct {
		name  string
		setup func(*Service)
		body  string
		code  int
		want  string
	}
	acquired := func(s *Service) {
		s.Acquire(context.Background(), k, "w1", time.Minute)
		s.Acquire(context.Background(), Key{Campaign: "c2", Shard: 0, Of: 2}, "w1", time.Minute)
	}
	// Two acquisitions of k: token 1 is fenced by token 2.
	handedOver := func(s *Service) {
		s.Acquire(context.Background(), k, "w1", time.Minute)
		s.Release(context.Background(), k, 1)
		s.Acquire(context.Background(), k, "w2", time.Minute)
	}
	// Two registrations of w1: token 1 is fenced by token 2.
	reregistered := func(s *Service) {
		s.RegisterWorker(context.Background(), "w1", "h:1", 1, time.Minute)
		s.RegisterWorker(context.Background(), "w1", "h:2", 1, time.Minute)
	}
	routes := map[string][]row{
		"/v1/leases/acquire": {
			{"held", acquired, `{` + key + `,"owner":"w2"}`, 409,
				`{"error":"leasesvc: lease c1/0-of-2 held by w1 (seq 0)","held":true,"owner":"w1"}`},
			{"bad key", nil, `{"campaign":"c1","shard":2,"of":2,"owner":"w2"}`, 400,
				`{"error":"leasesvc: key has impossible shard 2/2"}`},
			{"granted", nil, `{` + key + `,"owner":"w2","ttl_ms":1000}`, 200, `{"token":1,"ttl_ms":1000}`},
		},
		"/v1/leases/beat": {
			{"unknown", nil, `{` + key + `,"token":1,"seq":1}`, 404,
				`{"error":"leasesvc: unknown lease: c1/0-of-2"}`},
			{"fenced", handedOver, `{` + key + `,"token":1,"seq":1}`, 409,
				`{"error":"leasesvc: fencing token superseded: lease c1/0-of-2 token 1 \u003c 2","fenced":true}`},
			{"bad key", nil, `{"campaign":"","shard":0,"of":2,"token":1}`, 400,
				`{"error":"leasesvc: key has empty campaign hash"}`},
			{"beat", acquired, `{` + key + `,"token":1,"seq":1}`, 200, `{}`},
		},
		"/v1/leases/release": {
			{"unknown", nil, `{` + key + `,"token":1}`, 404,
				`{"error":"leasesvc: unknown lease: c1/0-of-2"}`},
			{"bad key", nil, `{"campaign":"c1","shard":-1,"of":2,"token":1}`, 400,
				`{"error":"leasesvc: key has impossible shard -1/2"}`},
			{"stale token", handedOver, `{` + key + `,"token":1}`, 200, `{}`},
		},
		"/v1/workers/register": {
			{"empty id", nil, `{"id":"","slots":1}`, 400,
				`{"error":"leasesvc: worker registration with empty id"}`},
			{"registered", nil, `{"id":"w1","slots":1,"ttl_ms":1000}`, 200, `{"token":1,"ttl_ms":1000}`},
		},
		"/v1/workers/beat": {
			{"unknown", nil, `{"id":"w1","token":1,"seq":1}`, 404,
				`{"error":"leasesvc: unknown lease: worker w1"}`},
			{"fenced", reregistered, `{"id":"w1","token":1,"seq":1}`, 409,
				`{"error":"leasesvc: fencing token superseded: worker w1 token 1 \u003c 2","fenced":true}`},
			{"beat", reregistered, `{"id":"w1","token":2,"seq":1}`, 200, `{"placements":[]}`},
		},
		"/v1/workers/deregister": {
			{"unknown", nil, `{"id":"w1","token":1}`, 404,
				`{"error":"leasesvc: unknown lease: worker w1"}`},
			{"stale token", reregistered, `{"id":"w1","token":1}`, 200, `{}`},
		},
	}
	for route, rows := range routes {
		for _, r := range rows {
			t.Run(strings.TrimPrefix(route, "/v1/")+"/"+r.name, func(t *testing.T) {
				svc := NewService(time.Minute)
				if r.setup != nil {
					r.setup(svc)
				}
				srv := httptest.NewServer(svc.Handler())
				defer srv.Close()
				resp, err := http.Post(srv.URL+route, "application/json", strings.NewReader(r.body))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				body, _ := io.ReadAll(resp.Body)
				if resp.StatusCode != r.code || string(body) != r.want+"\n" {
					t.Errorf("POST %s %s = %d %q, want %d %q", route, r.body, resp.StatusCode, body, r.code, r.want+"\n")
				}
			})
		}
	}
}

// TestErrorStatus pins the one map from a Service error to its HTTP
// status and body: every sentinel, wrapped or not, and a plain error.
func TestErrorStatus(t *testing.T) {
	k := Key{Campaign: "c1", Shard: 1, Of: 4}
	cases := []struct {
		name string
		err  error
		code int
		want string
	}{
		{"holder", &HeldError{Key: k, Owner: "w1", Seq: 3}, 409,
			`{"error":"leasesvc: lease c1/1-of-4 held by w1 (seq 3)","held":true,"owner":"w1","seq":3}`},
		{"held", fmt.Errorf("%w: c1", ErrHeld), 409, `{"error":"leasesvc: lease held: c1","held":true}`},
		{"fenced", fmt.Errorf("%w: c1", ErrFenced), 409, `{"error":"leasesvc: fencing token superseded: c1","fenced":true}`},
		{"unknown", fmt.Errorf("%w: c1", ErrUnknown), 404, `{"error":"leasesvc: unknown lease: c1"}`},
		{"plain", errors.New("leasesvc: bad"), 400, `{"error":"leasesvc: bad"}`},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		writeResult(rec, c.err, struct{}{})
		if rec.Code != c.code || rec.Body.String() != c.want+"\n" {
			t.Errorf("%s: %d %q, want %d %q", c.name, rec.Code, rec.Body.String(), c.code, c.want+"\n")
		}
	}
	rec := httptest.NewRecorder()
	writeResult(rec, nil, acquireResp{Token: 2, TTLMillis: 5})
	if rec.Code != http.StatusOK || rec.Body.String() != `{"token":2,"ttl_ms":5}`+"\n" {
		t.Errorf("success: %d %q", rec.Code, rec.Body.String())
	}
}
