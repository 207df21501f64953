package inject

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// outcomeString runs n GETs through a freshly wrapped transport and
// encodes each outcome as one letter: o=ok, d=dropped, l=response
// lost, e=503, x=other error.
func outcomeString(t *testing.T, srvURL string, p *NetProfile, label string, n int) string {
	t.Helper()
	client := &http.Client{Transport: WrapTransport(nil, p, label)}
	out := make([]byte, 0, n)
	for i := 0; i < n; i++ {
		resp, err := client.Get(srvURL)
		switch {
		case errors.Is(err, ErrRequestDropped):
			out = append(out, 'd')
		case errors.Is(err, ErrResponseLost):
			out = append(out, 'l')
		case err != nil:
			out = append(out, 'x')
		case resp.StatusCode == http.StatusServiceUnavailable:
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			out = append(out, 'e')
		default:
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			out = append(out, 'o')
		}
	}
	return string(out)
}

// Same seed and label → the exact same fault schedule; a different
// label → a different one. The reproducibility contract every drill
// rests on.
func TestChaosNetDeterministicSchedule(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	p := NetFlaky(7, 0)
	a := outcomeString(t, srv.URL, p, "shard-1", 60)
	b := outcomeString(t, srv.URL, p, "shard-1", 60)
	if a != b {
		t.Fatalf("same seed+label diverged:\n%s\n%s", a, b)
	}
	c := outcomeString(t, srv.URL, p, "shard-2", 60)
	if a == c {
		t.Fatalf("different labels produced the identical schedule %s", a)
	}
	for _, want := range []byte{'o', 'd', 'l', 'e'} {
		if !containsByte(a+c, want) {
			t.Fatalf("flaky schedule %q+%q never produced outcome %q", a, c, want)
		}
	}
}

func containsByte(s string, b byte) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return true
		}
	}
	return false
}

// A one-way partition delivers requests (the server acts on them) but
// loses every response; after the window heals, calls succeed.
func TestChaosNetOneWayPartitionWindow(t *testing.T) {
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	client := &http.Client{Transport: WrapTransport(nil, NetPartition(1, 2, 3), "w")}
	for op := 0; op < 8; op++ {
		resp, err := client.Get(srv.URL)
		inWindow := op >= 2 && op < 5
		if inWindow {
			if !errors.Is(err, ErrResponseLost) {
				t.Fatalf("op %d in partition: err = %v, want ErrResponseLost", op, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("op %d outside partition: %v", op, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	// One-way means delivered: the server saw every single request.
	if got := served.Load(); got != 8 {
		t.Fatalf("server handled %d requests, want 8 (partition must deliver)", got)
	}
}

func TestChaosNetNeverHealingPartition(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	client := &http.Client{Transport: WrapTransport(nil, NetPartition(5, 0, -1), "w")}
	for op := 0; op < 6; op++ {
		_, err := client.Get(srv.URL)
		if err == nil {
			t.Fatalf("op %d under permanent partition succeeded", op)
		}
		if !errors.Is(err, ErrResponseLost) {
			t.Fatalf("op %d: %v, want ErrResponseLost", op, err)
		}
	}
}

// MaxOps bounds the faulty prefix: everything at op >= MaxOps is
// clean, which is what makes retried protocols provably convergent.
func TestChaosNetMaxOpsConvergence(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	p := NetFlaky(3, 10)
	got := outcomeString(t, srv.URL, p, "w", 30)
	for i := 10; i < 30; i++ {
		if got[i] != 'o' {
			t.Fatalf("op %d past MaxOps=10 was %q, want clean: %s", i, got[i], got)
		}
	}
}

func TestChaosNetParse(t *testing.T) {
	cases := []struct {
		in      string
		wantNil bool
		wantErr bool
		check   func(*NetProfile) bool
	}{
		{in: "", wantNil: true},
		{in: "none", wantNil: true},
		{in: "flaky", check: func(p *NetProfile) bool { return p.DropRate > 0 && p.PartitionFrom < 0 }},
		{in: "flaky+seed=9+maxops=40", check: func(p *NetProfile) bool { return p.Seed == 9 && p.MaxOps == 40 }},
		{in: "partition=0:-1", check: func(p *NetProfile) bool { return p.PartitionFrom == 0 && p.PartitionFor == -1 }},
		{in: "partition=12:5", check: func(p *NetProfile) bool { return p.PartitionFrom == 12 && p.PartitionFor == 5 }},
		{in: "drop=0.3+latency=0.2:5ms", check: func(p *NetProfile) bool {
			return p.DropRate == 0.3 && p.LatencyRate == 0.2 && p.Latency == 5*time.Millisecond
		}},
		{in: "oneway=0.25+err=0.1", check: func(p *NetProfile) bool {
			return p.OneWayRate == 0.25 && p.ErrRate == 0.1
		}},
		{in: "seed=5", wantErr: true}, // options but no fault class
		{in: "bogus", wantErr: true},
		{in: "drop=1.5", wantErr: true},
		{in: "partition=-1:4", wantErr: true},
		{in: "latency=0.2", wantErr: true}, // missing duration
		{in: "maxops=-3+flaky", wantErr: true},
		{in: "flaky+acceptdrop=0.2", wantErr: true}, // no listener-side fault
	}
	for _, tc := range cases {
		p, err := ParseNet(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseNet(%q) = %+v, want error", tc.in, p)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseNet(%q): %v", tc.in, err)
			continue
		}
		if tc.wantNil {
			if p != nil {
				t.Errorf("ParseNet(%q) = %+v, want nil", tc.in, p)
			}
			continue
		}
		if p == nil || (tc.check != nil && !tc.check(p)) {
			t.Errorf("ParseNet(%q) = %+v fails its check", tc.in, p)
		}
	}
}
