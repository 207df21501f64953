package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"rowhammer/internal/server"
)

// client is the single closed-loop client: it owns one HTTP connection
// and sends the next request only after the previous one completed.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

// close releases the client's connection.
func (c *client) close() { c.http.CloseIdleConnections() }

// sample is one campaign as the client saw it.
type sample struct {
	index int
	// Client-side instants: POST sent, POST acknowledged, first
	// running (or terminal) snapshot, terminal snapshot, artifact GET
	// sent, last artifact byte received.
	start, ack, running, done, fetch, end time.Time
	events                                int
	jobs                                  int
	digest                                string
	// err is why the campaign failed, nil when it succeeded.
	err error
}

func (s *sample) latency() time.Duration { return s.end.Sub(s.start) }

// digestOf names artifact bytes in the committed digest lists.
func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// run submits one campaign, follows its SSE stream to the terminal
// state and fetches its artifact. A refused submit, a failed campaign
// or a non-200 fetch sets s.err.
func (c *client) run(i int, spec server.Spec) *sample {
	s := &sample{index: i}
	s.err = c.runInto(s, spec)
	return s
}

func (c *client) runInto(s *sample, spec server.Spec) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	s.start = time.Now()
	resp, err := c.http.Post(c.base+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	ackBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.ack = time.Now()
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(ackBody)))
	}
	var ack server.Status
	if err := json.Unmarshal(ackBody, &ack); err != nil {
		return fmt.Errorf("submit: %w", err)
	}

	final, err := c.follow(s, ack.ID)
	if err != nil {
		return err
	}
	if final.State != server.StateDone {
		return fmt.Errorf("campaign %s ended %s: %s", ack.ID, final.State, final.Error)
	}
	s.jobs = final.Total

	s.fetch = time.Now()
	resp, err = c.http.Get(c.base + "/v1/artifacts/" + final.ArtifactID)
	if err != nil {
		return fmt.Errorf("fetch: %w", err)
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.end = time.Now()
	if err != nil {
		return fmt.Errorf("fetch: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fetch %s: %s", final.ArtifactID, resp.Status)
	}
	s.digest = digestOf(payload)
	return nil
}

// follow reads the campaign's SSE stream until the server closes it
// after the terminal snapshot, stamping the first running and the
// terminal snapshot on arrival.
func (c *client) follow(s *sample, id string) (server.Status, error) {
	var last server.Status
	resp, err := c.http.Get(c.base + "/v1/campaigns/" + id + "/events")
	if err != nil {
		return last, fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return last, fmt.Errorf("events %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		now := time.Now()
		if err := json.Unmarshal([]byte(data), &last); err != nil {
			return last, fmt.Errorf("events %s: %w", id, err)
		}
		s.events++
		if s.running.IsZero() && last.State != server.StateQueued {
			s.running = now
		}
		if last.Terminal() {
			s.done = now
		}
	}
	if err := sc.Err(); err != nil {
		return last, fmt.Errorf("events %s: %w", id, err)
	}
	if !last.Terminal() {
		return last, fmt.Errorf("events %s: stream ended in state %q", id, last.State)
	}
	return last, nil
}
