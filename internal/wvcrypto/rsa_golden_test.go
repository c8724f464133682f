package wvcrypto_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/wideleak"
	"repro/internal/wvcrypto"
)

// keyGolden pins SHA-256 over the PKCS#1 DER of Device RSA keys minted
// before the small-prime filter existed. The filter may only make
// keygen faster: any change here means the prime search moved.
var keyGolden = map[string]string{
	"wvcrypto-test-rsa": "e4866e7c50a49c7b691b84a1de0aba6bfea2d5db120091ed4c1058ab32bdc547",
	"PX-Netflix-f09f":   "e8502b531e2f27b074ae98b76f1d4ff82637be7662b5faab88ee61067fc6462f",
	"L3-Netflix-f09f":   "6c85ff8c2588f939c1d39a38b4037e2d34c1d13f97d4a4781883daad792be109",
	"N5-Netflix-f09f":   "a65b0ad180e58769597ad14bfaef68825a38633d13b28b0c15a73da0f51edae0",
	"PX-Disney-02dc":    "e2348617128b7d598802c148ef5427c72c56c5f77ae85726389dd08f17a7dc50",
}

func keyDigest(t *testing.T, der []byte) string {
	t.Helper()
	sum := sha256.Sum256(der)
	return hex.EncodeToString(sum[:])
}

func TestGenerateRSAKey_Golden(t *testing.T) {
	key, err := wvcrypto.GenerateRSAKey(wvcrypto.NewDeterministicReader("wvcrypto-test-rsa"))
	if err != nil {
		t.Fatal(err)
	}
	if got := keyDigest(t, wvcrypto.MarshalRSAPrivateKey(key)); got != keyGolden["wvcrypto-test-rsa"] {
		t.Errorf("wvcrypto-test-rsa: key digest %s, want %s", got, keyGolden["wvcrypto-test-rsa"])
	}

	pool := wideleak.NewKeyPool("default")
	ids := wideleak.DeviceStableIDs(nil)[:4]
	for _, id := range ids {
		want, ok := keyGolden[id]
		if !ok {
			t.Fatalf("device %s has no golden: the default device serials moved", id)
		}
		key, err := pool.Key(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := keyDigest(t, wvcrypto.MarshalRSAPrivateKey(key)); got != want {
			t.Errorf("%s: key digest %s, want %s", id, got, want)
		}
	}
}
