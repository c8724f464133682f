package serve

import (
	"fmt"
	"net/http"

	"repro/internal/httpkit"
	"repro/internal/wideleak"
)

// Batch API: POST /v1/batches plans a slice of RunSpecs as one
// deduplicated cell matrix and executes it through the shared cell
// cache, so overlapping specs (same world, overlapping probes or
// profiles) pay for their union once instead of N full runs. A batch is
// the same Job a study is, with N specs: it waits in the same queue
// (and is shed with 429 when it is full), runs on the same workers, and
// logs its rows as frames that stream out as cells complete:
//
//	POST   /v1/batches                    submit {specs: [RunSpec, ...], concurrency}
//	GET    /v1/batches                    list batches, newest first
//	GET    /v1/batches/{id}               batch status + sharing stats
//	DELETE /v1/batches/{id}               cancel a queued or running batch
//	GET    /v1/batches/{id}/rows          completed rows (?stream=1 for SSE)
//	GET    /v1/batches/{id}/tables/{spec} one spec's table (?format=txt|csv|json)

// BatchSubmitResponse is the wire shape of POST /v1/batches.
type BatchSubmitResponse struct {
	ID        string   `json:"id"`
	State     JobState `json:"state"`
	Specs     int      `json:"specs"`
	StatusURL string   `json:"status_url"`
	RowsURL   string   `json:"rows_url"`
}

func (s *Server) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
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
	specs := make([]wideleak.RunSpec, len(req.Specs))
	for i, spec := range req.Specs {
		c, err := spec.Canonicalize()
		if err != nil {
			httpkit.WriteError(w, http.StatusBadRequest, fmt.Sprintf("spec %d: %v", i, err))
			return
		}
		specs[i] = c
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		httpkit.WriteError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	job := s.newJobLocked(specs, "", req.Concurrency, true)
	if !s.enqueueLocked(job) {
		s.mu.Unlock()
		writeShed(w)
		return
	}
	s.mu.Unlock()

	w.Header().Set("Location", job.path())
	httpkit.WriteJSON(w, http.StatusAccepted, BatchSubmitResponse{
		ID:        job.ID,
		State:     job.State(),
		Specs:     len(specs),
		StatusURL: job.path(),
		RowsURL:   job.path() + "/rows",
	})
}
