package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/provision"
	"repro/internal/wideleak"
	"repro/internal/wvcrypto"
)

// oracle holds the expected JSON table of every spec a run submits: the
// fault-free rendering of the in-process engine (RunSpec.Build →
// ExecuteBatch → Table.Encode). Chaos invariance and served-equals-fresh
// make a served table equal to it byte for byte.
type oracle struct {
	tables map[string][]byte // fault-free spec key → JSON table
}

// faultFreeKey is the oracle's index for a spec.
func faultFreeKey(spec wideleak.RunSpec) (string, error) {
	spec.Faults = nil
	return spec.Key()
}

// buildOracle renders every distinct fault-free spec in one batch. The
// world seed's device keys come from keyDir when an earlier run of this
// checkout stored them there (they are a pure function of the seed), and
// are minted and stored otherwise.
func buildOracle(specs []wideleak.RunSpec, keyDir string) (*oracle, error) {
	pool, err := oraclePool(keyDir)
	if err != nil {
		return nil, err
	}
	o := &oracle{tables: make(map[string][]byte)}
	var plain []wideleak.RunSpec
	var keys []string
	for _, spec := range specs {
		key, err := faultFreeKey(spec)
		if err != nil {
			return nil, err
		}
		if _, ok := o.tables[key]; ok {
			continue
		}
		o.tables[key] = nil
		spec.Faults = nil
		plain = append(plain, spec)
		keys = append(keys, key)
	}
	res, err := wideleak.ExecuteBatch(context.Background(), plain, wideleak.BatchOptions{
		Concurrency: runtime.GOMAXPROCS(0),
		BuildStudy: func(spec wideleak.RunSpec) (*wideleak.Study, error) {
			study, err := spec.Build()
			if err != nil {
				return nil, err
			}
			return study, study.World.AttachKeyPool(pool)
		},
	})
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	for i, table := range res.Tables {
		if o.tables[keys[i]], err = table.Encode("json"); err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
	}
	return o, nil
}

// expected returns the table a spec must be served.
func (o *oracle) expected(spec wideleak.RunSpec) []byte {
	key, err := faultFreeKey(spec)
	if err != nil {
		return nil
	}
	return o.tables[key]
}

// oraclePool returns the "default" world's key pool with every device key
// resident, loading keys stored by an earlier run when their file exists.
func oraclePool(keyDir string) (*provision.KeyPool, error) {
	pool := wideleak.NewKeyPool("default")
	ids := wideleak.DeviceStableIDs(nil)
	path := filepath.Join(keyDir, "oracle-keys-"+pool.Fingerprint()+".json")
	if raw, err := os.ReadFile(path); err == nil {
		var stored map[string][]byte
		if json.Unmarshal(raw, &stored) == nil && len(stored) == len(ids) {
			ok := true
			for id, der := range stored {
				key, err := wvcrypto.ParseRSAPrivateKey(der)
				if err != nil {
					ok = false
					break
				}
				pool.Install(id, key)
			}
			if ok {
				return pool, nil
			}
			pool = wideleak.NewKeyPool("default")
		}
	}
	if err := pool.Prewarm(context.Background(), ids, runtime.GOMAXPROCS(0)); err != nil {
		return nil, fmt.Errorf("oracle keys: %w", err)
	}
	stored := make(map[string][]byte)
	for id, key := range pool.Export() {
		stored[id] = wvcrypto.MarshalRSAPrivateKey(key)
	}
	raw, err := json.Marshal(stored)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(keyDir, 0o755); err != nil {
		return nil, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return nil, fmt.Errorf("store oracle keys: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, fmt.Errorf("store oracle keys: %w", err)
	}
	return pool, nil
}
