package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/wideleak"
	"repro/internal/wideleak/probe"
)

// JobState is a job's lifecycle phase.
type JobState string

// Job states. Queued and Running are live; Done, Failed and Canceled are
// terminal. A cache-hit submission mints a job that is born Done.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// terminal reports whether the state is final.
func (s JobState) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// frame is one entry of a job's append-only log, pre-encoded for the
// wire: a probe event of a study, or a completed row of a batch.
type frame struct {
	event string // SSE event name
	data  []byte // one JSON value
}

// jobResult is one completed job, fully encoded: every spec's table in
// every supported format, the frame log, and the run's accounting.
// Results are immutable once built, so the cache shares them freely.
type jobResult struct {
	tables []map[string][]byte // per spec: format → bytes (txt, csv, json)
	frames []frame             // the producing run's log; cache hits replay it

	rows    int // table rows across every spec
	stats   wideleak.BatchStats
	wall    time.Duration
	virtual time.Duration

	// cellsRecombined records that the run was assembled purely from
	// memoized probe cells: no world was built and no probe executed —
	// the cell-aware result tier's zero-work path. Headers and job
	// status report it as the world-cache provenance: "hit" when the run
	// needed no world, "miss" when it built one.
	cellsRecombined bool
}

// Job is one submission of N ≥ 1 canonical specs, executed as one cell
// matrix. A study (/v1/studies) is a job of one spec whose frames are
// its probe events; a batch (/v1/batches) is a job of N specs whose
// frames are its completed rows.
type Job struct {
	ID    string
	Key   string             // tier-1 content address; "" for batches, which are not result-cached
	Specs []wideleak.RunSpec // canonical forms
	batch bool

	concurrency int
	metrics     *Metrics // counts the terminal state in finish

	mu        sync.Mutex
	state     JobState
	cached    bool
	errText   string
	result    *jobResult
	cancel    context.CancelFunc
	cancelled bool
	frames    []frame
	wake      chan struct{} // closed at the next append or finish; nil until a reader waits

	submitted time.Time
	started   time.Time
	finished  time.Time
}

// noun names a wire family in error messages.
func noun(batch bool) string {
	if batch {
		return "batch"
	}
	return "study"
}

// path is the job's status URL.
func (j *Job) path() string {
	if j.batch {
		return "/v1/batches/" + j.ID
	}
	return "/v1/studies/" + j.ID
}

// State returns the current lifecycle phase.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// start transitions queued → running and installs the cancel hook. It
// reports false when the job was already cancelled (or otherwise
// terminal) before a worker picked it up.
func (j *Job) start(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return false
	}
	j.state = JobRunning
	j.started = time.Now()
	j.cancel = cancel
	if j.cancelled {
		cancel()
	}
	return true
}

// finish moves the job to a terminal state, publishes the result, wakes
// every stream reader, and counts the state in the metrics. Finishing a
// job twice is a no-op (a queued job cancelled by the client stays
// cancelled when a worker later drains it).
func (j *Job) finish(state JobState, res *jobResult, errText string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finishLocked(state, res, errText)
}

func (j *Job) finishLocked(state JobState, res *jobResult, errText string) {
	if j.state.terminal() {
		return
	}
	j.state = state
	j.result = res
	j.errText = errText
	j.finished = time.Now()
	j.cancel = nil
	j.wakeLocked()
	if j.batch {
		j.metrics.batchFinished(state)
	} else {
		j.metrics.jobFinished(state)
	}
}

// requestCancel asks the job to stop: a running job has its context
// cancelled, a queued job is finished as canceled immediately. Returns
// false when the job is already terminal.
func (j *Job) requestCancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return false
	}
	j.cancelled = true
	if j.cancel != nil {
		j.cancel()
		return true
	}
	// Still queued: terminal-ize in place; the worker will skip it.
	j.finishLocked(JobCanceled, nil, "canceled before start")
	return true
}

// wakeLocked signals every reader waiting for the log to move.
func (j *Job) wakeLocked() {
	if j.wake != nil {
		close(j.wake)
		j.wake = nil
	}
}

// appendLocked encodes v as the log's next frame and wakes waiting
// readers.
func (j *Job) appendLocked(event string, v any) {
	if data, err := json.Marshal(v); err == nil {
		j.frames = append(j.frames, frame{event: event, data: data})
		j.wakeLocked()
	}
}

// recordEvent stamps one pipeline event with its log position and
// instant, appends it as a frame, and returns the stamped copy.
func (j *Job) recordEvent(ev probe.Event) probe.Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	ev.Seq = int64(len(j.frames) + 1)
	if ev.At.IsZero() {
		ev.At = time.Now()
	}
	j.appendLocked(ev.Kind.String(), ev)
	return ev
}

// appendRow stamps the batch sequence number onto one completed row and
// appends it. The matrix executor calls OnRow serially, so Seq order is
// also log order.
func (j *Job) appendRow(row Row) {
	j.mu.Lock()
	defer j.mu.Unlock()
	row.Seq = int64(len(j.frames) + 1)
	j.appendLocked("row", row)
}

// snapshotFrames returns everything logged so far.
func (j *Job) snapshotFrames() []frame {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.frames
}

// framesFrom returns the frames logged after position from and the
// job's state. When there is nothing new and the job is live, it also
// returns a channel closed at the next append or finish. Frames are
// never rewritten, so the returned slice stays valid without the lock.
func (j *Job) framesFrom(from int) ([]frame, JobState, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	fs := j.frames[from:]
	if len(fs) > 0 || j.state.terminal() {
		return fs, j.state, nil
	}
	if j.wake == nil {
		j.wake = make(chan struct{})
	}
	return nil, j.state, j.wake
}

// Row is the wire shape of one completed batch row: which spec and app
// it belongs to, a gap-free per-batch sequence stamp, and the rendered
// cells (or the transport annotation).
type Row struct {
	Seq    int64    `json:"seq"`
	Spec   int      `json:"spec"`
	App    string   `json:"app"`
	Err    string   `json:"error,omitempty"`
	Probes []string `json:"probes,omitempty"`
	Cells  []string `json:"cells,omitempty"`
}

// renderRow flattens one assembled row to the wire shape.
func renderRow(specIdx int, row wideleak.Row) Row {
	out := Row{Spec: specIdx, App: row.App, Err: row.Err, Probes: row.Probes}
	if row.Failed() {
		return out
	}
	for _, id := range row.Probes {
		if res := row.Result(id); res != nil {
			out.Cells = append(out.Cells, res.Cells()...)
		}
	}
	return out
}

// StudyStatus is the wire shape of GET /v1/studies/{id}.
type StudyStatus struct {
	ID      string           `json:"id"`
	State   JobState         `json:"state"`
	Cached  bool             `json:"cached"`
	Request wideleak.RunSpec `json:"request"`
	Error   string           `json:"error,omitempty"`

	Rows            int   `json:"rows,omitempty"`
	Observations    int   `json:"observations"`
	LegacyPlaybacks int   `json:"legacy_playbacks"`
	Events          int   `json:"events"`
	WallMS          int64 `json:"wall_ms,omitempty"`
	VirtualMS       int64 `json:"virtual_ms,omitempty"`

	// WorldCache reports whether the done run built a world: "miss" when
	// it did, "hit" when every cell it needed was memoized. Empty until
	// the job is done.
	WorldCache string `json:"world_cache,omitempty"`

	// CellCache is "hit" when the run was reassembled purely from
	// memoized probe cells (zero device work without a tier-1 hit).
	CellCache string `json:"cell_cache,omitempty"`

	TableURL  string `json:"table_url,omitempty"`
	EventsURL string `json:"events_url,omitempty"`
}

// studyStatus snapshots a study for the API. A cached job reports zero
// observations and playbacks: it did no device work of its own.
func (j *Job) studyStatus() StudyStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := StudyStatus{
		ID:      j.ID,
		State:   j.state,
		Cached:  j.cached,
		Request: j.Specs[0],
		Error:   j.errText,
		Events:  len(j.frames),
	}
	if r := j.result; r != nil {
		st.Rows = r.rows
		st.WallMS = r.wall.Milliseconds()
		st.VirtualMS = r.virtual.Milliseconds()
		st.WorldCache = worldCacheLabel(r.cellsRecombined)
		if r.cellsRecombined {
			st.CellCache = "hit"
		}
		if !j.cached {
			st.Observations = r.stats.Observations
			st.LegacyPlaybacks = r.stats.LegacyPlaybacks
		}
	}
	if j.state == JobDone {
		st.TableURL = j.path() + "/table"
		st.EventsURL = j.path() + "/events"
	}
	return st
}

// BatchStatus is the wire shape of GET /v1/batches/{id}.
type BatchStatus struct {
	ID       string              `json:"id"`
	State    JobState            `json:"state"`
	Error    string              `json:"error,omitempty"`
	Specs    []wideleak.RunSpec  `json:"specs"`
	RowsDone int                 `json:"rows_done"`
	Stats    wideleak.BatchStats `json:"stats,omitempty"`
	// WallMS runs from submission to the terminal state, queueing
	// included.
	WallMS int64 `json:"wall_ms,omitempty"`

	RowsURL   string   `json:"rows_url"`
	TableURLs []string `json:"table_urls,omitempty"`
}

// batchStatus snapshots a batch for the API.
func (j *Job) batchStatus() BatchStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := BatchStatus{
		ID:       j.ID,
		State:    j.state,
		Error:    j.errText,
		Specs:    j.Specs,
		RowsDone: len(j.frames),
		RowsURL:  j.path() + "/rows",
	}
	if j.state.terminal() {
		st.WallMS = j.finished.Sub(j.submitted).Milliseconds()
	}
	if j.state == JobDone {
		st.Stats = j.result.stats
		for i := range j.Specs {
			st.TableURLs = append(st.TableURLs, fmt.Sprintf("%s/tables/%d", j.path(), i))
		}
	}
	return st
}

// status renders the job's wire status document.
func (j *Job) status() any {
	if j.batch {
		return j.batchStatus()
	}
	return j.studyStatus()
}

// snapshotResult returns the published result, nil until Done.
func (j *Job) snapshotResult() *jobResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobDone {
		return nil
	}
	return j.result
}

// provenance reports the done job's cache attribution — whether the job
// itself was served from the tier-1 result cache, and whether the run
// that produced its bytes was recombined from memoized cells without
// building a world. ok is false until the job is done.
func (j *Job) provenance() (cached, recombined, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobDone || j.result == nil {
		return false, false, false
	}
	return j.cached, j.result.cellsRecombined, true
}

// worldCacheLabel renders world provenance the way headers and job
// status spell it: "hit" when the run needed no world, "miss" when it
// built one.
func worldCacheLabel(recombined bool) string {
	if recombined {
		return "hit"
	}
	return "miss"
}
