package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"rowhammer/internal/artifact"
	"rowhammer/internal/store"
)

func newTestServer(t *testing.T, cfg ManagerConfig) (*httptest.Server, *Manager, *store.Store) {
	t.Helper()
	mgr, st := newTestManager(t, t.TempDir(), cfg)
	ts := httptest.NewServer(New(mgr, st).Handler())
	t.Cleanup(ts.Close)
	return ts, mgr, st
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && err != io.EOF {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postSpec(t *testing.T, url string, spec Spec) (Status, int) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(url+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Status
		Existing bool `json:"existing"`
	}
	json.NewDecoder(resp.Body).Decode(&st)
	return st.Status, resp.StatusCode
}

func TestHTTPSubmitStatusAndArtifact(t *testing.T) {
	ts, _, _ := newTestServer(t, ManagerConfig{MaxActive: 2})

	st, code := postSpec(t, ts.URL, tinyFig5())
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d, want 202", code)
	}
	// Idempotent resubmit: 200, same ID.
	again, code := postSpec(t, ts.URL, tinyFig5())
	if code != http.StatusOK || again.ID != st.ID {
		t.Fatalf("resubmit = %d %+v", code, again)
	}

	// Poll status until done.
	deadline := time.Now().Add(2 * time.Minute)
	var final Status
	for {
		if code := getJSON(t, ts.URL+"/v1/campaigns/"+st.ID, &final); code != http.StatusOK {
			t.Fatalf("GET status = %d", code)
		}
		if final.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign stuck: %+v", final)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if final.State != StateDone {
		t.Fatalf("final = %+v", final)
	}

	// The stored artifact round-trips byte-identically over HTTP.
	resp, err := http.Get(ts.URL + "/v1/artifacts/" + final.ArtifactID)
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := fig5Bytes(t); !bytes.Equal(payload, want) {
		t.Fatalf("HTTP artifact differs from ComputeAll bytes (%d vs %d)", len(payload), len(want))
	}

	// Index queries find it — and reject garbage parameters.
	var metas []store.Meta
	if code := getJSON(t, ts.URL+"/v1/artifacts?experiment=fig5&mfr=A&seed=1", &metas); code != http.StatusOK || len(metas) != 1 {
		t.Fatalf("query = %d, %d metas", code, len(metas))
	}
	if code := getJSON(t, ts.URL+"/v1/artifacts?experiment=nosuch", &metas); code != http.StatusOK || len(metas) != 0 {
		t.Fatalf("empty query = %d, %d metas", code, len(metas))
	}
	if code := getJSON(t, ts.URL+"/v1/artifacts?seed=notanumber", nil); code != http.StatusBadRequest {
		t.Fatalf("bad seed = %d, want 400", code)
	}

	// Meta and rows endpoints.
	var meta store.Meta
	if code := getJSON(t, ts.URL+"/v1/artifacts/"+final.ArtifactID+"/meta", &meta); code != http.StatusOK || meta.Experiment != "fig5" {
		t.Fatalf("meta = %d %+v", code, meta)
	}
	var rows []artifact.Row
	if code := getJSON(t, ts.URL+"/v1/artifacts/"+final.ArtifactID+"/rows?prefix=mfr=A", &rows); code != http.StatusOK {
		t.Fatalf("rows = %d", code)
	}
	if len(rows) == 0 {
		t.Fatal("prefix query returned no rows")
	}
	for i, row := range rows {
		if !strings.HasPrefix(row.Key, "mfr=A") {
			t.Fatalf("row %d key %q escapes the prefix filter", i, row.Key)
		}
		if i > 0 && rows[i-1].Key > row.Key {
			t.Fatalf("rows not key-sorted at %d", i)
		}
	}

	// 404s.
	if code := getJSON(t, ts.URL+"/v1/campaigns/cnope", nil); code != http.StatusNotFound {
		t.Fatalf("unknown campaign = %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/artifacts/nope", nil); code != http.StatusNotFound {
		t.Fatalf("unknown artifact = %d", code)
	}
	var health map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health["ok"] != true {
		t.Fatalf("healthz = %d %+v", code, health)
	}
}

func TestHTTPRejectsBadSubmissions(t *testing.T) {
	ts, _, _ := newTestServer(t, ManagerConfig{})
	for name, body := range map[string]string{
		"not json":       "{",
		"unknown field":  `{"kind":"ber","bogus":1}`,
		"unknown kind":   `{"kind":"nosuch"}`,
		"unknown scale":  `{"kind":"ber","scale":"huge"}`,
		"inverted temps": `{"kind":"ber","scale":"tiny","temps":[90,50]}`,
		"33 temps":       `{"kind":"ber","scale":"tiny","temps":[50,51,52,53,54,55,56,57,58,59,60,61,62,63,64,65,66,67,68,69,70,71,72,73,74,75,76,77,78,79,80,81,82]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestSSEStreamsToCompletion consumes the events endpoint and
// requires a well-formed SSE stream whose final event is terminal.
func TestSSEStreamsToCompletion(t *testing.T) {
	ts, _, _ := newTestServer(t, ManagerConfig{})
	st, code := postSpec(t, ts.URL, tinyFig5())
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var last Status
	events := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		events++
		if err := json.Unmarshal([]byte(line[len("data: "):]), &last); err != nil {
			t.Fatalf("bad event payload %q: %v", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("no events received")
	}
	if !last.Terminal() {
		t.Fatalf("stream ended on non-terminal status %+v", last)
	}
	if last.State != StateDone || last.Done != last.Total {
		t.Fatalf("final event = %+v", last)
	}
}

// TestServerLoad hammers the API with concurrent query clients while
// campaigns run: 4 concurrent campaigns and >=1k query clients. Run
// under -race via `make race`. The p99 query latency is reported in
// the test log and must stay under a generous bound — this is a
// smoke ceiling against pathological lock contention, not a
// benchmark.
func TestServerLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short")
	}
	ts, _, _ := newTestServer(t, ManagerConfig{MaxActive: 4, WorkerBudget: 2})

	var ids []string
	for _, seed := range []uint64{11, 12, 13, 14} {
		spec := tinyFig5()
		spec.Seed = seed
		st, code := postSpec(t, ts.URL, spec)
		if code != http.StatusAccepted {
			t.Fatalf("POST seed %d = %d", seed, code)
		}
		ids = append(ids, st.ID)
	}

	const clients = 1000
	const perClient = 3
	type sample struct {
		d   time.Duration
		err error
	}
	results := make(chan sample, clients*perClient)
	paths := []string{
		"/v1/campaigns",
		"/v1/artifacts",
		"/v1/artifacts?experiment=fig5&seed=11",
		"/healthz",
	}
	client := &http.Client{Timeout: 30 * time.Second}
	for c := 0; c < clients; c++ {
		go func(c int) {
			for i := 0; i < perClient; i++ {
				url := ts.URL + paths[(c+i)%len(paths)]
				start := time.Now()
				resp, err := client.Get(url)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("GET %s: %d", url, resp.StatusCode)
					}
				}
				results <- sample{time.Since(start), err}
			}
		}(c)
	}
	latencies := make([]time.Duration, 0, clients*perClient)
	for i := 0; i < clients*perClient; i++ {
		s := <-results
		if s.err != nil {
			t.Fatal(s.err)
		}
		latencies = append(latencies, s.d)
	}

	// All campaigns complete under load.
	deadline := time.Now().Add(3 * time.Minute)
	for _, id := range ids {
		for {
			var st Status
			getJSON(t, ts.URL+"/v1/campaigns/"+id, &st)
			if st.State == StateDone {
				break
			}
			if st.Terminal() {
				t.Fatalf("campaign %s: %+v", id, st)
			}
			if time.Now().After(deadline) {
				t.Fatalf("campaign %s stuck under load: %+v", id, st)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// p99 over all queries.
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p50 := latencies[len(latencies)/2]
	p99 := latencies[len(latencies)*99/100]
	t.Logf("load: %d queries, p50 %v, p99 %v, max %v", len(latencies), p50, p99, latencies[len(latencies)-1])
	if bound := 10 * time.Second; p99 > bound {
		t.Fatalf("p99 query latency %v exceeds %v", p99, bound)
	}
}
