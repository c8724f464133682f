package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
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
// daemon does, partitions the specs by world key across the ring (each
// spec runs on the replica owning its world, where that world's cells,
// snapshot and key pool are warm), submits one sub-batch per replica,
// and merges status, rows and tables back under fleet-level spec
// indexes. Routed this way, a fleet-wide batch gets the same cell
// sharing a single daemon would give co-world specs, without ever
// duplicating a world across replicas.

// fleetBatchPart is one sub-batch living on one replica. specIdx maps
// the replica's local spec indexes (0..len-1) back to the fleet batch's.
type fleetBatchPart struct {
	replicaID string
	remoteID  string
	specIdx   []int
}

// fleetBatch is the router's record of one fanned-out batch.
type fleetBatch struct {
	id    string
	specs []wideleak.RunSpec
	parts []fleetBatchPart

	// specPart[i] locates fleet spec i: which part, and its index there.
	specPart []struct{ part, idx int }
}

// fleetBatchStatus is the router's merged status document: the
// daemon's batch status over fleet spec indexes, plus where each part
// lives. Rows merged from the parts keep the daemon's serve.Row shape,
// with Seq re-stamped and Spec remapped to fleet indexes.
type fleetBatchStatus struct {
	serve.BatchStatus
	Parts []fleetBatchPartDoc `json:"parts"`
}

// fleetBatchPartDoc documents one partition in the merged status.
type fleetBatchPartDoc struct {
	Replica string         `json:"replica"`
	BatchID string         `json:"batch_id"`
	Specs   []int          `json:"specs"` // fleet spec indexes living on this part
	State   serve.JobState `json:"state"`
	Error   string         `json:"error,omitempty"`
}

// batchTarget picks the replica a world key's specs should run on: the
// first healthy replica in ring-walk order (the owner when it is up).
func (rt *Router) batchTarget(worldKey string) *replica {
	for _, id := range rt.ring.sequence(worldKey) {
		if rep := rt.replica(id); rep != nil && rep.isHealthy() {
			return rep
		}
	}
	return nil
}

func (rt *Router) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Specs       []wideleak.RunSpec `json:"specs"`
		Concurrency int                `json:"concurrency,omitempty"`
	}
	if !httpkit.DecodeJSON(w, r, 4<<20, &req) {
		return
	}
	if len(req.Specs) == 0 {
		httpkit.WriteError(w, http.StatusBadRequest, "batch needs at least one spec")
		return
	}

	// Canonicalize and partition by the world's routed replica.
	type partition struct {
		rep     *replica
		specs   []wideleak.RunSpec
		specIdx []int
	}
	specs := make([]wideleak.RunSpec, len(req.Specs))
	parts := make(map[string]*partition)
	var order []string // replica IDs in first-touch order (deterministic fan-out)
	for i, spec := range req.Specs {
		c, err := spec.Canonicalize()
		if err != nil {
			httpkit.WriteError(w, http.StatusBadRequest, fmt.Sprintf("spec %d: %v", i, err))
			return
		}
		specs[i] = c
		worldKey, err := c.WorldKey()
		if err != nil {
			httpkit.WriteError(w, http.StatusBadRequest, fmt.Sprintf("spec %d: %v", i, err))
			return
		}
		rep := rt.batchTarget(worldKey)
		if rep == nil {
			rt.metrics.addUnroutable()
			httpkit.WriteError(w, http.StatusServiceUnavailable, "no healthy replica")
			return
		}
		p := parts[rep.id]
		if p == nil {
			p = &partition{rep: rep}
			parts[rep.id] = p
			order = append(order, rep.id)
		}
		p.specs = append(p.specs, c)
		p.specIdx = append(p.specIdx, i)
	}

	// Submit one sub-batch per replica. A failed or shed part cancels the
	// ones already placed — a fleet batch exists whole or not at all.
	batch := &fleetBatch{specs: specs}
	for _, id := range order {
		p := parts[id]
		body, err := json.Marshal(map[string]any{"specs": p.specs, "concurrency": req.Concurrency})
		if err != nil {
			httpkit.WriteError(w, http.StatusInternalServerError, err.Error())
			return
		}
		resp, err := rt.forward(r.Context(), p.rep, http.MethodPost, "/v1/batches", bytes.NewReader(body))
		if err != nil {
			rt.metrics.addProxyError(p.rep.id)
			rt.noteFailure(p.rep)
			rt.cancelParts(batch)
			httpkit.WriteError(w, http.StatusServiceUnavailable, fmt.Sprintf("replica %s: %v", p.rep.id, err))
			return
		}
		var remote serve.BatchSubmitResponse
		decErr := json.NewDecoder(resp.Body).Decode(&remote)
		status := resp.StatusCode
		drainBody(resp)
		if status == http.StatusTooManyRequests {
			// The replica's queue is full: relay the shed, as a study
			// submission would be when no replica can take it.
			rt.metrics.addReplicaShed(p.rep.id)
			rt.metrics.addShed()
			rt.cancelParts(batch)
			w.Header().Set("Retry-After", "1")
			httpkit.WriteError(w, http.StatusTooManyRequests, fmt.Sprintf("replica %s shed the sub-batch", p.rep.id))
			return
		}
		if status != http.StatusAccepted || decErr != nil || remote.ID == "" {
			rt.cancelParts(batch)
			httpkit.WriteError(w, http.StatusBadGateway, fmt.Sprintf("replica %s answered %d to sub-batch", p.rep.id, status))
			return
		}
		rt.metrics.addBatchPart(p.rep.id)
		batch.parts = append(batch.parts, fleetBatchPart{
			replicaID: p.rep.id,
			remoteID:  remote.ID,
			specIdx:   p.specIdx,
		})
	}

	batch.specPart = make([]struct{ part, idx int }, len(specs))
	for pi, part := range batch.parts {
		for li, fi := range part.specIdx {
			batch.specPart[fi] = struct{ part, idx int }{pi, li}
		}
	}

	rt.mu.Lock()
	rt.seq++
	batch.id = fmt.Sprintf("fb%06d", rt.seq)
	rt.batches[batch.id] = batch
	rt.mu.Unlock()
	rt.metrics.addBatch()

	w.Header().Set("Location", "/v1/batches/"+batch.id)
	httpkit.WriteJSON(w, http.StatusAccepted, struct {
		serve.BatchSubmitResponse
		Parts int `json:"parts"`
	}{serve.BatchSubmitResponse{
		ID:        batch.id,
		State:     serve.JobQueued,
		Specs:     len(specs),
		StatusURL: "/v1/batches/" + batch.id,
		RowsURL:   "/v1/batches/" + batch.id + "/rows",
	}, len(batch.parts)})
}

// cancelParts best-effort cancels every sub-batch already placed.
func (rt *Router) cancelParts(batch *fleetBatch) {
	for _, part := range batch.parts {
		if rep := rt.replica(part.replicaID); rep != nil {
			if resp, err := rt.forward(context.Background(), rep, http.MethodDelete, "/v1/batches/"+part.remoteID, nil); err == nil {
				drainBody(resp)
			}
		}
	}
}

// fleetBatchByID looks a fanned-out batch up.
func (rt *Router) fleetBatchByID(id string) *fleetBatch {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.batches[id]
}

// partStatus fetches one sub-batch's status from its replica.
func (rt *Router) partStatus(r *http.Request, part fleetBatchPart) (serve.BatchStatus, error) {
	var st serve.BatchStatus
	rep := rt.replica(part.replicaID)
	if rep == nil {
		return st, fmt.Errorf("unknown replica %s", part.replicaID)
	}
	resp, err := rt.forward(r.Context(), rep, http.MethodGet, "/v1/batches/"+part.remoteID, nil)
	if err != nil {
		rt.metrics.addProxyError(rep.id)
		rt.noteFailure(rep)
		return st, err
	}
	defer drainBody(resp)
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("replica %s answered %d", rep.id, resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
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

func (rt *Router) handleBatchStatus(w http.ResponseWriter, r *http.Request) {
	batch := rt.fleetBatchByID(r.PathValue("id"))
	if batch == nil {
		httpkit.WriteError(w, http.StatusNotFound, "no such batch")
		return
	}
	out := fleetBatchStatus{BatchStatus: serve.BatchStatus{
		ID:      batch.id,
		Specs:   batch.specs,
		RowsURL: "/v1/batches/" + batch.id + "/rows",
	}}
	states := make([]serve.JobState, 0, len(batch.parts))
	var errs []string
	for _, part := range batch.parts {
		doc := fleetBatchPartDoc{Replica: part.replicaID, BatchID: part.remoteID, Specs: part.specIdx}
		st, err := rt.partStatus(r, part)
		if err != nil {
			doc.State, doc.Error = serve.JobFailed, err.Error()
			errs = append(errs, fmt.Sprintf("%s: %v", part.replicaID, err))
		} else {
			doc.State, doc.Error = st.State, st.Error
			if st.Error != "" {
				errs = append(errs, fmt.Sprintf("%s: %s", part.replicaID, st.Error))
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

func (rt *Router) handleBatchCancel(w http.ResponseWriter, r *http.Request) {
	batch := rt.fleetBatchByID(r.PathValue("id"))
	if batch == nil {
		httpkit.WriteError(w, http.StatusNotFound, "no such batch")
		return
	}
	rt.cancelParts(batch)
	httpkit.WriteJSON(w, http.StatusAccepted, map[string]any{"id": batch.id, "state": "canceling"})
}

// handleBatchTable proxies one fleet spec's table to the part that ran
// it, translating the fleet index to the replica's local one.
func (rt *Router) handleBatchTable(w http.ResponseWriter, r *http.Request) {
	batch := rt.fleetBatchByID(r.PathValue("id"))
	if batch == nil {
		httpkit.WriteError(w, http.StatusNotFound, "no such batch")
		return
	}
	idx, err := strconv.Atoi(r.PathValue("spec"))
	if err != nil || idx < 0 || idx >= len(batch.specs) {
		httpkit.WriteError(w, http.StatusNotFound, fmt.Sprintf("batch has specs 0..%d", len(batch.specs)-1))
		return
	}
	loc := batch.specPart[idx]
	part := batch.parts[loc.part]
	rep := rt.replica(part.replicaID)
	if rep == nil {
		httpkit.WriteError(w, http.StatusInternalServerError, "batch part mapped to unknown replica")
		return
	}
	path := fmt.Sprintf("/v1/batches/%s/tables/%d", part.remoteID, loc.idx)
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	resp, err := rt.forward(r.Context(), rep, http.MethodGet, path, nil)
	if err != nil {
		rt.metrics.addProxyError(rep.id)
		rt.noteFailure(rep)
		httpkit.WriteError(w, http.StatusBadGateway, err.Error())
		return
	}
	relayResponse(w, resp, rep.id)
}

func (rt *Router) handleBatchRows(w http.ResponseWriter, r *http.Request) {
	batch := rt.fleetBatchByID(r.PathValue("id"))
	if batch == nil {
		httpkit.WriteError(w, http.StatusNotFound, "no such batch")
		return
	}
	if r.URL.Query().Get("stream") != "" {
		rt.streamBatchRows(w, r, batch)
		return
	}
	// Merge each part's backlog: remap spec indexes, order by (part,
	// part-local seq), re-stamp fleet Seq.
	merged := []serve.Row{}
	for pi, part := range batch.parts {
		rep := rt.replica(part.replicaID)
		if rep == nil {
			continue
		}
		resp, err := rt.forward(r.Context(), rep, http.MethodGet, "/v1/batches/"+part.remoteID+"/rows", nil)
		if err != nil {
			rt.metrics.addProxyError(rep.id)
			rt.noteFailure(rep)
			httpkit.WriteError(w, http.StatusBadGateway, fmt.Sprintf("replica %s: %v", rep.id, err))
			return
		}
		var rows []serve.Row
		decErr := json.NewDecoder(resp.Body).Decode(&rows)
		drainBody(resp)
		if decErr != nil {
			httpkit.WriteError(w, http.StatusBadGateway, fmt.Sprintf("replica %s: %v", rep.id, decErr))
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

// streamBatchRows fans every part's SSE row stream into one: a reader
// goroutine per part parses frames and remaps spec indexes; the writer
// serializes them, re-stamping a fleet-level Seq (strictly ascending in
// delivery order), and closes with one merged `event: done`.
func (rt *Router) streamBatchRows(w http.ResponseWriter, r *http.Request, batch *fleetBatch) {
	stream, ok := httpkit.NewEventStream(w)
	if !ok {
		return
	}

	rowCh := make(chan serve.Row, 64)
	doneCh := make(chan serve.JobState, len(batch.parts))
	var wg sync.WaitGroup
	for _, part := range batch.parts {
		rep := rt.replica(part.replicaID)
		if rep == nil {
			doneCh <- serve.JobFailed
			continue
		}
		wg.Add(1)
		go func(part fleetBatchPart, rep *replica) {
			defer wg.Done()
			state := serve.JobFailed
			defer func() { doneCh <- state }()
			resp, err := rt.forward(r.Context(), rep, http.MethodGet, "/v1/batches/"+part.remoteID+"/rows?stream=1", nil)
			if err != nil {
				rt.metrics.addProxyError(rep.id)
				return
			}
			defer resp.Body.Close()
			scanner := bufio.NewScanner(resp.Body)
			event := ""
			for scanner.Scan() {
				line := scanner.Text()
				switch {
				case strings.HasPrefix(line, "event: "):
					event = strings.TrimPrefix(line, "event: ")
				case strings.HasPrefix(line, "data: "):
					data := strings.TrimPrefix(line, "data: ")
					switch event {
					case "row":
						var row serve.Row
						if json.Unmarshal([]byte(data), &row) != nil {
							return
						}
						if row.Spec < 0 || row.Spec >= len(part.specIdx) {
							continue
						}
						row.Spec = part.specIdx[row.Spec]
						select {
						case rowCh <- row:
						case <-r.Context().Done():
							return
						}
					case "done":
						var fin struct {
							State serve.JobState `json:"state"`
						}
						if json.Unmarshal([]byte(data), &fin) == nil {
							state = fin.State
						}
						return
					}
				}
			}
		}(part, rep)
	}
	go func() {
		wg.Wait()
		close(rowCh)
	}()

	var seq int64
	for row := range rowCh {
		seq++
		row.Seq = seq
		data, err := json.Marshal(row)
		if err != nil {
			return
		}
		if stream.Send("row", data) != nil {
			// Client gone: drain readers via their context and bail.
			for range rowCh {
			}
			return
		}
	}
	states := make([]serve.JobState, 0, len(batch.parts))
	for range batch.parts {
		states = append(states, <-doneCh)
	}
	stream.Done(string(mergeState(states)))
}
