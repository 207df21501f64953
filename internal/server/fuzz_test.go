package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"testing"

	"rowhammer/internal/campaign"
)

// FuzzSubmitSpec feeds arbitrary bytes through what a POST
// /v1/campaigns submission goes through before anything runs: the
// handler's bounded, strict decode, the lowering to the library spec
// and Resolve. None of it may panic. A spec Resolve accepts must have
// a job count within campaign.MaxJobs, and its identity must survive a
// JSON round trip of the wire spec.
func FuzzSubmitSpec(f *testing.F) {
	f.Add([]byte(hugeSpec))
	f.Add([]byte(`{"kind":"hcfirst","mfrs":["A","B"],"modules_per_mfr":2,"scale":"tiny","seed":7}`))
	f.Add([]byte(`{"kind":"ber","scale":"tiny","temps":[50,70,90],"workers":2,"max_retries":3}`))
	f.Add([]byte(`{"kind":"fig5","scale":"tiny","seed":1,"shards":4}`))
	f.Add([]byte(`{"kind":"exp:wcdp","scale":"default","job_timeout_ms":1000,"watchdog_factor":2}`))
	f.Add([]byte(`{"kind":"spatial","mfrs":[],"modules_per_mfr":-1,"temps":[90,50]}`))
	f.Add([]byte(`{"kind":"ber","bogus":1}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		ws, err := decodeSpec(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), DefaultMaxSpecBytes)
		if err != nil {
			return
		}
		rsv, err := resolveWire(ws)
		if err != nil {
			return
		}
		if n := len(rsv.Spec.Mfrs); n == 0 || rsv.Spec.ModulesPerMfr > campaign.MaxJobs/n {
			t.Fatalf("accepted %d mfrs × %d modules, beyond %d jobs", n, rsv.Spec.ModulesPerMfr, campaign.MaxJobs)
		}
		enc, err := json.Marshal(ws)
		if err != nil {
			t.Fatal(err)
		}
		var back Spec
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("re-decoding %s: %v", enc, err)
		}
		again, err := resolveWire(back)
		if err != nil {
			t.Fatalf("round-tripped spec %s no longer resolves: %v", enc, err)
		}
		if got, want := again.Spec.IdentityHash(), rsv.Spec.IdentityHash(); got != want {
			t.Fatalf("identity %s after a JSON round trip of %s, %s before", got, enc, want)
		}
	})
}

// resolveWire lowers and resolves a wire spec, as Manager.Submit does.
func resolveWire(ws Spec) (Resolved, error) {
	raw, err := ws.CampaignSpec()
	if err != nil {
		return Resolved{}, err
	}
	return Resolve(raw)
}
