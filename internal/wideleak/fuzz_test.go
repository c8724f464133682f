package wideleak

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzRunSpec decodes arbitrary JSON into a RunSpec and canonicalizes
// it. The fleet depends on two properties of every spec that
// canonicalizes: the router canonicalizes, the replica canonicalizes the
// router's bytes again, and failover replays those bytes, so
//   - re-marshalling and re-canonicalizing the canonical form gives it
//     back byte for byte, and
//   - Key and WorldKey are the same on the request, its canonical form
//     and the re-canonicalized form.
func FuzzRunSpec(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"seed":"default"}`,
		`{"seed":"s","probes":["q4","q2","q2"],"profiles":["showtime","Netflix"]}`,
		`{"devices":["nexus5","pixel"],"dialect":"HLS","concurrency":-3}`,
		`{"dialect":"dash","faults":{"rate":0.05}}`,
		`{"faults":{"rate":0.25,"seed":"chaos-2"},"concurrency":4}`,
		`{"faults":{"rate":-0,"seed":"x"}}`,
		`{"seed":"é\u0000","profiles":[]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec RunSpec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		c, err := spec.Canonicalize()
		if err != nil {
			return
		}
		body, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("canonical form does not marshal: %v", err)
		}
		var replayed RunSpec
		if err := json.Unmarshal(body, &replayed); err != nil {
			t.Fatalf("canonical bytes %s do not decode: %v", body, err)
		}
		again, err := replayed.Canonicalize()
		if err != nil {
			t.Fatalf("canonical form %s does not canonicalize: %v", body, err)
		}
		if againBody, _ := json.Marshal(again); !bytes.Equal(againBody, body) {
			t.Fatalf("canonicalization is not idempotent:\n once  %s\n twice %s", body, againBody)
		}
		for name, addr := range map[string]func(RunSpec) (string, error){"Key": RunSpec.Key, "WorldKey": RunSpec.WorldKey} {
			want, err := addr(spec)
			if err != nil {
				t.Fatalf("%s of a spec that canonicalizes: %v", name, err)
			}
			for _, form := range []RunSpec{c, again} {
				if got, err := addr(form); err != nil || got != want {
					t.Fatalf("%s = %s (%v) on %+v, want %s", name, got, err, form, want)
				}
			}
		}
	})
}
