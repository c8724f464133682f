package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestFleetSmoke is the `make fleet-smoke` target: a 3-replica fleet
// driven through the router for 2s by 4 closed-loop clients over a
// primed key space of 2 seeds × 2 probe subsets, with ~5% of queued
// submissions canceled by a DELETE through the router. About 1 request
// in 8 is a two-spec batch across both seeds, followed on its merged
// row stream (~5% of those canceled through DELETE /v1/batches/{id}),
// so studies and batch parts cross the router's one job path
// concurrently. It requires nonzero completions, zero non-shed errors
// and a study tier-1 hit ratio of at least 0.5.
func TestFleetSmoke(t *testing.T) {
	f := startFleet(t, 3, serve.Config{Workers: 1, QueueSize: 16, CacheSize: 32})
	var keys []string
	for s := 0; s < 2; s++ {
		for _, probes := range []string{`["q2"]`, `["q3"]`} {
			keys = append(keys, fmt.Sprintf(`{"seed":"load-%02d","profiles":["Showtime"],"probes":%s}`, s, probes))
		}
	}
	var batches []string
	for _, probes := range [][2]string{{"q2", "q3"}, {"q3", "q2"}} {
		batches = append(batches, fmt.Sprintf(`{"specs":[{"seed":"load-00","profiles":["Showtime"],"probes":[%q]},{"seed":"load-01","profiles":["Showtime"],"probes":[%q]}]}`, probes[0], probes[1]))
	}
	client := &http.Client{Timeout: 5 * time.Minute}
	for _, k := range keys {
		if out := smokeRequest(client, f.URL, k, false); out == "error" {
			t.Fatalf("priming %s failed", k)
		}
	}

	var (
		mu     sync.Mutex
		counts = map[string]int{}
		wg     sync.WaitGroup
	)
	deadline := time.Now().Add(2 * time.Second)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 12345))
			for time.Now().Before(deadline) {
				var out string
				if rng.Intn(8) == 0 {
					out = smokeBatch(client, f.URL, batches[rng.Intn(len(batches))], rng.Float64() < 0.05)
				} else {
					out = smokeRequest(client, f.URL, keys[rng.Intn(len(keys))], rng.Float64() < 0.05)
				}
				mu.Lock()
				counts[out]++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	done := counts["hit"] + counts["done"]
	t.Logf("smoke mix: %d hits, %d computed, %d batches, %d shed, %d canceled, %d errors",
		counts["hit"], counts["done"], counts["batch"], counts["shed"], counts["canceled"], counts["error"])
	if done == 0 || counts["batch"] == 0 {
		t.Errorf("smoke mix completed no requests")
	}
	if counts["error"] != 0 {
		t.Errorf("smoke mix saw %d errors, want 0", counts["error"])
	}
	if ratio := float64(counts["hit"]) / float64(max(done, 1)); ratio < 0.5 {
		t.Errorf("primed smoke mix tier-1 hit ratio %.3f, want >= 0.5", ratio)
	}
	// A primed mix is all tier-1 hits, which never queue, so its cancels
	// rarely fire: cancel one never-seen (cold-world) study outright.
	if out := smokeRequest(client, f.URL, `{"seed":"load-cancel","profiles":["Showtime"]}`, true); out != "canceled" {
		t.Errorf("DELETE through the router on a queued cold study: outcome %q, want canceled", out)
	}
}

// smokeRequest submits one spec and follows it to its outcome: "hit"
// (answered from a result cache), "done", "shed", "canceled" or "error".
// cancel sends a DELETE through the router once the job is queued.
func smokeRequest(client *http.Client, base, body string, cancel bool) string {
	resp, err := client.Post(base+"/v1/studies", "application/json", strings.NewReader(body))
	if err != nil {
		return "error"
	}
	var sub struct {
		ID string `json:"id"`
	}
	decodeErr := json.NewDecoder(resp.Body).Decode(&sub)
	hit := resp.Header.Get(serve.HeaderCacheTier) == "hit"
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return "shed"
	case resp.StatusCode == http.StatusOK && hit:
		return "hit"
	case resp.StatusCode == http.StatusOK:
		return "done"
	case resp.StatusCode != http.StatusAccepted || decodeErr != nil || sub.ID == "":
		return "error"
	}

	if cancel {
		req, _ := http.NewRequest(http.MethodDelete, base+"/v1/studies/"+sub.ID, nil)
		resp, err := client.Do(req)
		if err != nil {
			return "error"
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK, http.StatusAccepted:
			return "canceled"
		case http.StatusConflict:
			// The job finished, or was coalesced onto a run someone else
			// still needs, before the cancel landed: follow it to done.
		default:
			return "error"
		}
	}

	for {
		resp, err := client.Get(base + "/v1/studies/" + sub.ID)
		if err != nil {
			return "error"
		}
		var st struct {
			State string `json:"state"`
		}
		decodeErr := json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || decodeErr != nil {
			return "error"
		}
		switch st.State {
		case "done":
			return "done"
		case "canceled":
			// Our own cancel raced ahead, or a sibling canceled the
			// coalesced run: not a fleet failure.
			return "canceled"
		case "failed":
			return "error"
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// smokeBatch submits one batch and follows its merged row stream to the
// outcome: "batch" (done), "shed", "canceled" or "error". cancel sends a
// DELETE through the router right after the submission.
func smokeBatch(client *http.Client, base, body string, cancel bool) string {
	resp, err := client.Post(base+"/v1/batches", "application/json", strings.NewReader(body))
	if err != nil {
		return "error"
	}
	var sub struct {
		ID string `json:"id"`
	}
	decodeErr := json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return "shed"
	case resp.StatusCode != http.StatusAccepted || decodeErr != nil || sub.ID == "":
		return "error"
	}

	if cancel {
		req, _ := http.NewRequest(http.MethodDelete, base+"/v1/batches/"+sub.ID, nil)
		resp, err := client.Do(req)
		if err != nil {
			return "error"
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return "error"
		}
		return "canceled"
	}

	resp, err = client.Get(base + "/v1/batches/" + sub.ID + "/rows?stream=1")
	if err != nil {
		return "error"
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "error"
	}
	scanner := bufio.NewScanner(resp.Body)
	done := false
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case line == "event: done":
			done = true
		case done && strings.HasPrefix(line, "data: "):
			var fin struct {
				State string `json:"state"`
			}
			json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &fin)
			switch fin.State {
			case "done":
				return "batch"
			case "canceled":
				return "canceled"
			}
			return "error"
		}
	}
	return "error" // the stream ended without a done frame
}
