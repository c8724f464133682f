package fleet

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/httpkit"
	"repro/internal/serve"
	"repro/internal/wideleak"
)

// Batch fan-out: the router accepts the same POST /v1/batches the
// daemon does and splits the specs by the ring owner of their worlds
// into parts (each spec runs on the replica owning its world, where that
// world's cells and its seed's key pool are warm). Each part is a
// sub-batch placed, proxied and failed over exactly as a study is; the
// router merges status, rows and tables back under fleet-level spec
// indexes. Routed this way, a fleet-wide batch gets the same cell
// sharing a single daemon would give co-world specs, without ever
// duplicating a world across replicas.

// batchRequest is the body of POST /v1/batches, on the router and, one
// per part, on the replicas.
type batchRequest struct {
	Specs       []wideleak.RunSpec `json:"specs"`
	Concurrency int                `json:"concurrency,omitempty"`
}

// fleetBatchStatus is the router's merged status document: the
// daemon's batch status over fleet spec indexes, plus where each part
// lives. Rows merged from the parts keep the daemon's serve.Row shape,
// with Seq re-stamped and Spec remapped to fleet indexes.
type fleetBatchStatus struct {
	serve.BatchStatus
	Parts []fleetBatchPartDoc `json:"parts"`
}

// fleetBatchPartDoc documents one part in the merged status.
type fleetBatchPartDoc struct {
	Replica string         `json:"replica"`
	BatchID string         `json:"batch_id"`
	Specs   []int          `json:"specs"` // fleet spec indexes living on this part
	State   serve.JobState `json:"state"`
	Error   string         `json:"error,omitempty"`
}

func (rt *Router) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !httpkit.DecodeJSON(w, r, 4<<20, &req) {
		return
	}
	if len(req.Specs) == 0 {
		httpkit.WriteError(w, http.StatusBadRequest, "batch needs at least one spec")
		return
	}

	// Canonicalize and split by ring owner, parts in first-touch order.
	job := &fleetJob{batch: true, specs: make([]wideleak.RunSpec, len(req.Specs))}
	byOwner := make(map[string]*fleetPart)
	for i, spec := range req.Specs {
		c, err := spec.Canonicalize()
		if err != nil {
			httpkit.WriteError(w, http.StatusBadRequest, fmt.Sprintf("spec %d: %v", i, err))
			return
		}
		worldKey, err := c.WorldKey()
		if err != nil {
			httpkit.WriteError(w, http.StatusBadRequest, fmt.Sprintf("spec %d: %v", i, err))
			return
		}
		job.specs[i] = c
		owner := rt.ring.owner(worldKey)
		part := byOwner[owner]
		if part == nil {
			part = &fleetPart{worldKey: worldKey}
			byOwner[owner] = part
			job.parts = append(job.parts, part)
		}
		part.specIdx = append(part.specIdx, i)
	}
	for _, part := range job.parts {
		sub := batchRequest{Concurrency: req.Concurrency}
		for _, i := range part.specIdx {
			sub.Specs = append(sub.Specs, job.specs[i])
		}
		var err error
		if part.body, err = json.Marshal(sub); err != nil {
			httpkit.WriteError(w, http.StatusInternalServerError, err.Error())
			return
		}
	}

	placed, ok := rt.submit(w, r, job, "")
	if !ok {
		return
	}
	rt.metrics.addBatch()
	for _, p := range placed {
		rt.metrics.addBatchPart(p.rep.id)
	}
	w.Header().Set("Location", "/v1/batches/"+job.id)
	httpkit.WriteJSON(w, http.StatusAccepted, struct {
		serve.BatchSubmitResponse
		Parts int `json:"parts"`
	}{serve.BatchSubmitResponse{
		ID:        job.id,
		State:     serve.JobQueued,
		Specs:     len(job.specs),
		StatusURL: "/v1/batches/" + job.id,
		RowsURL:   "/v1/batches/" + job.id + "/rows",
	}, len(job.parts)})
}

// handleBatchCancel cancels every part and answers 202 once each
// replica was reached.
func (rt *Router) handleBatchCancel(w http.ResponseWriter, r *http.Request) {
	job := rt.lookup(w, r, true)
	if job == nil {
		return
	}
	if err := rt.cancelParts(r.Context(), job, job.parts); err != nil {
		rt.fail(w, err)
		return
	}
	httpkit.WriteJSON(w, http.StatusAccepted, map[string]any{"id": job.id, "state": "canceling"})
}

// handleBatchTable proxies one fleet spec's table to the part that ran
// it, translating the fleet index to the part's local one.
func (rt *Router) handleBatchTable(w http.ResponseWriter, r *http.Request) {
	job := rt.lookup(w, r, true)
	if job == nil {
		return
	}
	idx, err := strconv.Atoi(r.PathValue("spec"))
	if err != nil || idx < 0 || idx >= len(job.specs) {
		httpkit.WriteError(w, http.StatusNotFound, fmt.Sprintf("batch has specs 0..%d", len(job.specs)-1))
		return
	}
	part, local := job.locate(idx)
	path := fmt.Sprintf("/tables/%d", local)
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	resp, rep, err := rt.proxy(r.Context(), job, part, http.MethodGet, path)
	if err != nil {
		rt.fail(w, err)
		return
	}
	if relayResponse(w, resp, rep.id) && resp.StatusCode == http.StatusOK {
		part.markOver() // tables are served only for a done batch
	}
}

// mergeState folds part states into the batch's: any failure dominates,
// then any still-live part, then cancellation; only all-done is done.
func mergeState(states []serve.JobState) serve.JobState {
	anyLive, anyCanceled := false, false
	for _, st := range states {
		switch st {
		case serve.JobFailed:
			return serve.JobFailed
		case serve.JobQueued, serve.JobRunning:
			anyLive = true
		case serve.JobCanceled:
			anyCanceled = true
		}
	}
	if anyLive {
		return serve.JobRunning
	}
	if anyCanceled {
		return serve.JobCanceled
	}
	return serve.JobDone
}

// handleBatchStatus merges every part's status; a part whose replica is
// gone fails over first. A cancelled part whose replica cannot be read
// reports canceled: it never runs again, so it cannot end any other way.
func (rt *Router) handleBatchStatus(w http.ResponseWriter, r *http.Request) {
	job := rt.lookup(w, r, true)
	if job == nil {
		return
	}
	out := fleetBatchStatus{BatchStatus: serve.BatchStatus{
		ID:      job.id,
		Specs:   job.specs,
		RowsURL: "/v1/batches/" + job.id + "/rows",
	}}
	states := make([]serve.JobState, 0, len(job.parts))
	var errs []string
	for _, part := range job.parts {
		var st serve.BatchStatus
		err := rt.getPart(r.Context(), job, part, "", &st)
		doc := fleetBatchPartDoc{Specs: part.specIdx}
		doc.Replica, doc.BatchID = part.location()
		switch {
		case err != nil && part.isCancelled():
			doc.State, doc.Error = serve.JobCanceled, err.Error()
			part.markOver()
		case err != nil:
			doc.State, doc.Error = serve.JobFailed, err.Error()
			errs = append(errs, fmt.Sprintf("%s: %v", doc.Replica, err))
		default:
			part.observe(st.State)
			doc.State, doc.Error = st.State, st.Error
			if st.Error != "" {
				errs = append(errs, fmt.Sprintf("%s: %s", doc.Replica, st.Error))
			}
			out.RowsDone += st.RowsDone
			out.Stats.Add(st.Stats)
		}
		states = append(states, doc.State)
		out.Parts = append(out.Parts, doc)
	}
	out.State = mergeState(states)
	if out.State == serve.JobFailed {
		out.Error = strings.Join(errs, "; ")
	}
	httpkit.WriteJSON(w, http.StatusOK, out)
}

// handleBatchRows merges each part's row backlog (spec indexes remapped,
// ordered by (part, part-local seq), fleet Seq re-stamped), or with
// ?stream=1 their row streams.
func (rt *Router) handleBatchRows(w http.ResponseWriter, r *http.Request) {
	job := rt.lookup(w, r, true)
	if job == nil {
		return
	}
	if r.URL.Query().Get("stream") != "" {
		rt.streamRows(w, r, job)
		return
	}
	merged := []serve.Row{}
	for pi, part := range job.parts {
		var rows []serve.Row
		if err := rt.getPart(r.Context(), job, part, "/rows", &rows); err != nil {
			rt.fail(w, err)
			return
		}
		for _, row := range rows {
			if row.Spec < 0 || row.Spec >= len(part.specIdx) {
				continue
			}
			row.Spec = part.specIdx[row.Spec]
			row.Seq = int64(pi)<<32 | row.Seq // sortable (part, local seq) key
			merged = append(merged, row)
		}
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Seq < merged[j].Seq })
	for i := range merged {
		merged[i].Seq = int64(i + 1)
	}
	httpkit.WriteJSON(w, http.StatusOK, merged)
}

// streamRows fans every part's SSE row stream into one. Every part
// stream is opened first, through failover, so a lost replica is
// replaced before the first frame. Then a reader per part remaps spec
// indexes, and the writer re-stamps a fleet-level Seq (strictly
// ascending in delivery order). The merged `event: done` is sent only
// after every part's stream sent one; a part stream cut by replica loss
// ends the merged stream without it, and the client reopens.
func (rt *Router) streamRows(w http.ResponseWriter, r *http.Request, job *fleetJob) {
	bodies := make([]io.ReadCloser, 0, len(job.parts))
	closeAll := func() {
		for _, b := range bodies {
			b.Close()
		}
	}
	for _, part := range job.parts {
		resp, rep, err := rt.proxy(r.Context(), job, part, http.MethodGet, "/rows?stream=1")
		if err != nil {
			closeAll()
			rt.fail(w, err)
			return
		}
		if resp.StatusCode != http.StatusOK {
			closeAll()
			relayResponse(w, resp, rep.id)
			return
		}
		bodies = append(bodies, resp.Body)
	}
	stream, ok := httpkit.NewEventStream(w)
	if !ok {
		closeAll()
		return
	}

	rowCh := make(chan serve.Row, 64)
	states := make([]serve.JobState, len(job.parts))
	var wg sync.WaitGroup
	for i, part := range job.parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			states[i] = relayRows(r.Context(), bodies[i], part.specIdx, rowCh)
		}()
	}
	go func() {
		wg.Wait()
		close(rowCh)
	}()

	var seq int64
	for row := range rowCh {
		seq++
		row.Seq = seq
		data, _ := json.Marshal(row)
		if stream.Send("row", data) != nil {
			// Client gone: drain readers via their context and bail.
			for range rowCh {
			}
			return
		}
	}
	for i, st := range states {
		if st == "" {
			return
		}
		job.parts[i].observe(st)
	}
	stream.Done(string(mergeState(states)))
}

// relayRows reads one part's SSE row stream onto rows, remapping spec
// indexes to the fleet's, and returns the state its `event: done`
// carried — "" when the stream ended without one.
func relayRows(ctx context.Context, body io.ReadCloser, specIdx []int, rows chan<- serve.Row) serve.JobState {
	defer body.Close()
	scanner := bufio.NewScanner(body)
	event := ""
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := []byte(strings.TrimPrefix(line, "data: "))
			switch event {
			case "row":
				var row serve.Row
				if json.Unmarshal(data, &row) != nil {
					return ""
				}
				if row.Spec < 0 || row.Spec >= len(specIdx) {
					continue
				}
				row.Spec = specIdx[row.Spec]
				select {
				case rows <- row:
				case <-ctx.Done():
					return ""
				}
			case "done":
				var fin struct {
					State serve.JobState `json:"state"`
				}
				json.Unmarshal(data, &fin)
				return fin.State
			}
		}
	}
	return ""
}
