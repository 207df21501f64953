package leasesvc

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// leasePosts lists every POST route of the lease and worker-registry
// API with a constructor for the request type its handler decodes.
var leasePosts = []struct {
	path string
	req  func() any
}{
	{"/v1/leases/acquire", func() any { return new(acquireReq) }},
	{"/v1/leases/beat", func() any { return new(beatReq) }},
	{"/v1/leases/release", func() any { return new(releaseReq) }},
	{"/v1/workers/register", func() any { return new(registerWorkerReq) }},
	{"/v1/workers/beat", func() any { return new(workerBeatReq) }},
	{"/v1/workers/deregister", func() any { return new(deregisterWorkerReq) }},
}

// FuzzLeaseRequests posts arbitrary bodies to every lease-service POST
// handler, in order, on a fresh Service: the routes a worker on an
// untrusted network reaches. No handler may panic or answer 5xx, and
// a body the handler's strict decode cannot read must get a 4xx.
func FuzzLeaseRequests(f *testing.F) {
	f.Add([]byte(`{"campaign":"c1","shard":0,"of":2,"owner":"w1","ttl_ms":1000}`))
	f.Add([]byte(`{"campaign":"c1","shard":1,"of":2,"token":1,"seq":3,"done":1,"total":4}`))
	f.Add([]byte(`{"id":"w1","owner":"host","slots":2,"ttl_ms":500}`))
	f.Add([]byte(`{"id":"w1","token":1,"seq":1}`))
	f.Add([]byte(`{"campaign":"c1","shard":-1,"of":0,"ttl_ms":-5}`))
	f.Add([]byte(`{"bogus":1}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2]`))
	f.Add([]byte(`{"campaign":`))
	f.Fuzz(func(t *testing.T, body []byte) {
		h := NewService(time.Second).Handler()
		for _, p := range leasePosts {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, p.path, bytes.NewReader(body)))
			if rec.Code >= 500 {
				t.Fatalf("POST %s %q = %d: %s", p.path, body, rec.Code, rec.Body)
			}
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(p.req()); err != nil && rec.Code < 400 {
				t.Fatalf("POST %s malformed %q (%v) = %d, want 4xx", p.path, body, err, rec.Code)
			}
		}
	})
}
