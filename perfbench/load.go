package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/wideleak"
)

// conns is the client's connection budget: one client process, at most
// two connections, one op in flight on each.
const conns = 2

// client runs ops against the router.
type client struct {
	base   string
	hc     *http.Client
	oracle *oracle
	tracer *tracer // nil on untraced runs
}

func newClient(base string, o *oracle, tr *tracer) *client {
	return &client{
		base: base,
		hc: &http.Client{
			Timeout: time.Minute, // no op waits this long unless the server hangs
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
		oracle: o,
		tracer: tr,
	}
}

// close drops the client's idle connections.
func (c *client) close() { c.hc.CloseIdleConnections() }

// outcome is what one op observed.
type outcome struct {
	err     string  // non-empty: the op failed
	shed    bool    // the router answered 429
	tier    string  // X-Wideleak-Cache of a study submit
	replica string  // X-Fleet-Replica of a study submit
	jobPath string  // the study's or batch's status path
	waitMS  float64 // time spent waiting on the event stream
}

// call performs one HTTP request and reads the whole body.
func (c *client) call(id int, span, method, path string, body []byte) (*http.Response, []byte, error) {
	defer c.tracer.span(id, span)()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp, out, err
}

// awaitDone reads a server-sent event stream until its `event: done` and
// returns the terminal state it carries.
func (c *client) awaitDone(id int, span, path string) (string, error) {
	defer c.tracer.span(id, span)()
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return "", fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case event == "done" && strings.HasPrefix(line, "data: "):
			var fin struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal([]byte(line[len("data: "):]), &fin); err != nil {
				return "", err
			}
			// Drain to EOF so the connection is reused.
			io.Copy(io.Discard, resp.Body)
			return fin.State, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("GET %s: stream ended without done", path)
}

// run executes one op: submit, wait for completion on the event stream
// (never by polling), read every table back and compare it with the
// oracle.
func (c *client) run(id int, o op) outcome {
	defer c.tracer.span(id, "op")()
	if o.batch {
		return c.runBatch(id, o)
	}
	spec := o.specs[0]
	body, err := json.Marshal(spec)
	if err != nil {
		return outcome{err: err.Error()}
	}
	resp, raw, err := c.call(id, "http.submit", http.MethodPost, "/v1/studies", body)
	if err != nil {
		return outcome{err: err.Error()}
	}
	out := outcome{
		tier:    resp.Header.Get("X-Wideleak-Cache"),
		replica: resp.Header.Get("X-Fleet-Replica"),
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		out.shed = true
		out.err = "shed"
		return out
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		out.err = fmt.Sprintf("submit: status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		return out
	}
	var sub struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(raw, &sub); err != nil || sub.ID == "" {
		out.err = fmt.Sprintf("submit: bad response %q", raw)
		return out
	}
	out.jobPath = "/v1/studies/" + sub.ID
	if o.tier != "" && out.tier != o.tier {
		out.err = fmt.Sprintf("cache tier %q, want %q", out.tier, o.tier)
		return out
	}
	if sub.State != "done" {
		t0 := time.Now()
		state, err := c.awaitDone(id, "http.wait", out.jobPath+"/events?stream=1")
		out.waitMS = time.Since(t0).Seconds() * 1000
		if err != nil {
			out.err = err.Error()
			return out
		}
		if state != "done" {
			out.err = "study ended " + state
			return out
		}
	}
	if err := c.fetchTable(id, out.jobPath+"/table?format=json", spec, o.tier == "miss"); err != nil {
		out.err = err.Error()
	}
	return out
}

// fetchTable reads one table and compares it with the oracle's. A table
// of a never-seen spec must also come from a world built cold.
func (c *client) fetchTable(id int, path string, spec wideleak.RunSpec, coldWorld bool) error {
	resp, table, err := c.call(id, "http.table", http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	if coldWorld && resp.Header.Get("X-Wideleak-World-Cache") != "miss" {
		return fmt.Errorf("world cache %q on a never-seen spec", resp.Header.Get("X-Wideleak-World-Cache"))
	}
	if !bytes.Equal(table, c.oracle.expected(spec)) {
		return fmt.Errorf("GET %s: table differs from the in-process rendering", path)
	}
	return nil
}

// runBatch executes a batch op: submit, wait on the merged row stream,
// read back every spec's table.
func (c *client) runBatch(id int, o op) outcome {
	body, err := json.Marshal(map[string]any{"specs": o.specs})
	if err != nil {
		return outcome{err: err.Error()}
	}
	resp, raw, err := c.call(id, "http.submit", http.MethodPost, "/v1/batches", body)
	if err != nil {
		return outcome{err: err.Error()}
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return outcome{shed: true, err: "shed"}
	}
	if resp.StatusCode != http.StatusAccepted {
		return outcome{err: fmt.Sprintf("batch submit: status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))}
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &sub); err != nil || sub.ID == "" {
		return outcome{err: fmt.Sprintf("batch submit: bad response %q", raw)}
	}
	out := outcome{jobPath: "/v1/batches/" + sub.ID}
	t0 := time.Now()
	state, err := c.awaitDone(id, "http.wait", out.jobPath+"/rows?stream=1")
	out.waitMS = time.Since(t0).Seconds() * 1000
	if err != nil {
		out.err = err.Error()
		return out
	}
	if state != "done" {
		out.err = "batch ended " + state
		return out
	}
	for i, spec := range o.specs {
		if err := c.fetchTable(id, fmt.Sprintf("%s/tables/%d?format=json", out.jobPath, i), spec, false); err != nil {
			out.err = err.Error()
			return out
		}
	}
	return out
}

// sample is one op's timing, in seconds from its due time.
type sample struct {
	due     float64 // seconds after the phase start
	latency float64 // due → last table byte checked
	late    float64 // due → first request sent
	out     outcome
}

// phase is the record of one open-loop phase.
type phase struct {
	name    string
	rate    float64
	samples []sample
	wall    float64 // first due → last completion
}

// drive offers ops in an open loop: op i is due at arrivals[i] after the
// phase starts and goes out on the first free connection. Each op is
// timed from when it was due, so a stall is charged to every op it
// delays.
func (c *client) drive(name string, rate float64, ops []op, arrivals []float64, firstID int) *phase {
	p := &phase{name: name, rate: rate, samples: make([]sample, len(ops))}
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	var lastMu sync.Mutex
	var last time.Time
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				start := time.Now()
				out := c.run(firstID+j.i, ops[j.i])
				end := time.Now()
				p.samples[j.i] = sample{
					due:     arrivals[j.i],
					latency: end.Sub(j.due).Seconds(),
					late:    start.Sub(j.due).Seconds(),
					out:     out,
				}
				lastMu.Lock()
				if end.After(last) {
					last = end
				}
				lastMu.Unlock()
			}
		}()
	}
	t0 := time.Now().Add(5 * time.Millisecond)
	for i := range ops {
		due := t0.Add(time.Duration(arrivals[i] * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		jobs <- job{i: i, due: due}
	}
	close(jobs)
	wg.Wait()
	p.wall = last.Sub(t0).Seconds()
	return p
}

// failed counts the phase's failed ops; shed ones are also counted apart.
func (p *phase) failed() (failed, shed int, first string) {
	for _, s := range p.samples {
		if s.out.err != "" {
			failed++
			if first == "" {
				first = s.out.err
			}
		}
		if s.out.shed {
			shed++
		}
	}
	return failed, shed, first
}

// latencies returns the sorted op latencies in milliseconds.
func (p *phase) latencies() []float64 {
	ms := make([]float64, len(p.samples))
	for i, s := range p.samples {
		ms[i] = s.latency * 1000
	}
	sort.Float64s(ms)
	return ms
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// startRate is the rate at which the phase's ops actually went out: ops
// start on time while the server keeps pace, and at its completion rate
// once both connections stay busy, so a rate below the offered one means
// a growing backlog.
func (p *phase) startRate() float64 {
	n := len(p.samples)
	if n < 2 {
		return p.rate
	}
	first, last := math.Inf(1), math.Inf(-1)
	for _, s := range p.samples {
		start := s.due + s.late
		first = math.Min(first, start)
		last = math.Max(last, start)
	}
	// n starts span n-1 gaps; the offered schedule's own span is the
	// reference, so jitter in the gaps cancels.
	offered := p.samples[n-1].due - p.samples[0].due
	return p.rate * offered / (last - first)
}

// report prints the phase's accounting to standard error.
func (p *phase) report() {
	failed, shed, first := p.failed()
	lat := p.latencies()
	fmt.Fprintf(os.Stderr, "phase %-10s rate=%7.2f/s attempted=%d succeeded=%d failed=%d shed=%d p50=%.2fms p90=%.2fms wall=%.2fs",
		p.name, p.rate, len(p.samples), len(p.samples)-failed, failed, shed,
		percentile(lat, 0.5), percentile(lat, 0.9), p.wall)
	if first != "" {
		fmt.Fprintf(os.Stderr, " first-failure=%q", first)
	}
	fmt.Fprintln(os.Stderr)
}
