package device

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/oemcrypto"
)

// KeyboxState declares the provisioning trust a profile's factory-minted
// keybox carries.
type KeyboxState int

// KeyboxState values.
//
//   - KeyboxValid: the keybox is installed in normal-world flash and its
//     device key is fed to the provisioning registry (the ordinary L3
//     manufacturing channel).
//   - KeyboxRevoked: the keybox is minted and installed exactly like a
//     valid one, but the manufacturer → Widevine feed never happens, so
//     every provisioning request for the device is refused as unknown —
//     the study-visible shape of a revoked identity.
//   - KeyboxAbsentTEE: no keybox ever exists in the normal world; it is
//     sealed into TEE secure storage at manufacturing (the L1 channel).
const (
	KeyboxValid KeyboxState = iota
	KeyboxRevoked
	KeyboxAbsentTEE
)

// String renders the state for listings and provenance.
func (k KeyboxState) String() string {
	switch k {
	case KeyboxRevoked:
		return "revoked"
	case KeyboxAbsentTEE:
		return "absent (TEE-sealed)"
	default:
		return "valid"
	}
}

// Profile declares one device model: everything Factory.Make needs to
// manufacture a handset, as data instead of a bespoke constructor. The
// registered profiles form the study's device axis — which apps enforce
// revocation as a function of security level, CDM version and patch
// level is exactly the question the axis spans.
type Profile struct {
	// Name is the registry key ("pixel", "nexus5", ...), matched
	// case-insensitively by spec canonicalization.
	Name string
	// Model is the human-readable handset name.
	Model string
	// Level selects the Widevine implementation: L1 boots a TEE world and
	// trustlet, L3 a software engine in the DRM server process.
	Level oemcrypto.SecurityLevel
	// AndroidVersion and PatchLevel describe the device's update posture.
	AndroidVersion string
	PatchLevel     string
	// CDMVersion is what license and provisioning policies test against
	// (the revocation threshold is CDM-version based).
	CDMVersion string
	// SystemID is the Widevine system ID baked into the keybox.
	SystemID uint32
	// Keybox is the factory keybox's trust state.
	Keybox KeyboxState
	// Legacy marks a discontinued handset — the population Q4's
	// revocation matrix plays on.
	Legacy bool
	// SerialPrefix prefixes the per-app device serial ("PX" → "PX-Netflix…").
	// Serials double as provisioning stable IDs, so prefixes must be
	// unique across the registry.
	SerialPrefix string
}

// Revoked reports whether provisioning will refuse the device.
func (p Profile) Revoked() bool { return p.Keybox == KeyboxRevoked }

// profileRegistry holds the named device profiles in registration order.
var profileRegistry = struct {
	mu       sync.RWMutex
	order    []Profile
	byName   map[string]int
	byPrefix map[string]string
}{byName: make(map[string]int), byPrefix: make(map[string]string)}

// Register adds a device profile to the registry. It fails on an empty
// or duplicate name, a duplicate serial prefix, an unknown security
// level, or a missing CDM version.
func Register(p Profile) error {
	if p.Name == "" {
		return fmt.Errorf("device: profile with empty name")
	}
	if p.SerialPrefix == "" {
		return fmt.Errorf("device: profile %s: empty serial prefix", p.Name)
	}
	if p.CDMVersion == "" {
		return fmt.Errorf("device: profile %s: empty CDM version", p.Name)
	}
	if p.Level != oemcrypto.L1 && p.Level != oemcrypto.L3 {
		return fmt.Errorf("device: profile %s: unsupported security level %v", p.Name, p.Level)
	}
	if p.Level == oemcrypto.L1 && p.Keybox == KeyboxValid {
		// An L1 keybox never sits in normal-world flash; normalize the
		// zero value so profile literals stay terse.
		p.Keybox = KeyboxAbsentTEE
	}
	profileRegistry.mu.Lock()
	defer profileRegistry.mu.Unlock()
	key := strings.ToLower(p.Name)
	if _, dup := profileRegistry.byName[key]; dup {
		return fmt.Errorf("device: duplicate profile %q", p.Name)
	}
	if owner, dup := profileRegistry.byPrefix[p.SerialPrefix]; dup {
		return fmt.Errorf("device: profile %s: serial prefix %q already used by %s", p.Name, p.SerialPrefix, owner)
	}
	profileRegistry.byName[key] = len(profileRegistry.order)
	profileRegistry.byPrefix[p.SerialPrefix] = p.Name
	profileRegistry.order = append(profileRegistry.order, p)
	return nil
}

// MustRegister is Register, panicking on error (init-time use).
func MustRegister(p Profile) {
	if err := Register(p); err != nil {
		panic(err)
	}
}

// Profiles returns every registered device profile in registration
// order — the canonical order of the device axis.
func Profiles() []Profile {
	profileRegistry.mu.RLock()
	defer profileRegistry.mu.RUnlock()
	return append([]Profile(nil), profileRegistry.order...)
}

// ProfileNames returns the registered profile names in registration
// order.
func ProfileNames() []string {
	profileRegistry.mu.RLock()
	defer profileRegistry.mu.RUnlock()
	names := make([]string, len(profileRegistry.order))
	for i, p := range profileRegistry.order {
		names[i] = p.Name
	}
	return names
}

// ByName resolves one profile by name, case-insensitively.
func ByName(name string) (Profile, bool) {
	profileRegistry.mu.RLock()
	defer profileRegistry.mu.RUnlock()
	idx, ok := profileRegistry.byName[strings.ToLower(name)]
	if !ok {
		return Profile{}, false
	}
	return profileRegistry.order[idx], true
}

// MustProfile resolves a registered profile or panics — for the default
// set and tests, where a miss is a programming error.
func MustProfile(name string) Profile {
	p, ok := ByName(name)
	if !ok {
		panic("device: unregistered profile " + name)
	}
	return p
}

// registryIndex returns a profile's registration position (for
// canonical ordering); unregistered names sort last.
func registryIndex(name string) int {
	profileRegistry.mu.RLock()
	defer profileRegistry.mu.RUnlock()
	if idx, ok := profileRegistry.byName[strings.ToLower(name)]; ok {
		return idx
	}
	return len(profileRegistry.order)
}

// SortByRegistry orders profile names canonically (registration order),
// in place. Spec canonicalization uses it to make the device axis
// order-insensitive.
func SortByRegistry(names []string) {
	sort.SliceStable(names, func(i, j int) bool {
		return registryIndex(names[i]) < registryIndex(names[j])
	})
}

// defaultProfileNames is the paper's trio: the devices every world
// manufactures when no device set is requested.
var defaultProfileNames = []string{"pixel", "l3", "nexus5"}

// DefaultProfileNames returns the default device set (the paper's
// Pixel / modern L3 / Nexus 5 trio), in canonical order.
func DefaultProfileNames() []string {
	return append([]string(nil), defaultProfileNames...)
}

func init() {
	// The paper's trio first: these three reproduce the bespoke
	// constructors byte for byte and are the default device set every
	// golden pins.
	MustRegister(Profile{
		Name: "pixel", Model: "Pixel", Level: oemcrypto.L1,
		AndroidVersion: "12", PatchLevel: "2021-12", CDMVersion: CurrentCDMVersion,
		SystemID: systemIDModern, Keybox: KeyboxAbsentTEE, SerialPrefix: "PX",
	})
	MustRegister(Profile{
		Name: "l3", Model: "Generic L3 Phone", Level: oemcrypto.L3,
		AndroidVersion: "12", PatchLevel: "2021-12", CDMVersion: CurrentCDMVersion,
		SystemID: systemIDLegacy, Keybox: KeyboxValid, SerialPrefix: "L3",
	})
	MustRegister(Profile{
		Name: "nexus5", Model: "Nexus 5", Level: oemcrypto.L3,
		AndroidVersion: "6.0.1", PatchLevel: "2016-10", CDMVersion: LegacyCDMVersion,
		SystemID: systemIDLegacy, Keybox: KeyboxValid, Legacy: true, SerialPrefix: "N5",
	})
	// The extended matrix: discontinued handsets bracketing the CDM-14.0
	// revocation threshold at both security levels, an at-threshold
	// control pair, a revoked identity, and a modern L3 variant.
	MustRegister(Profile{
		Name: "pixel-2016", Model: "Pixel (2016)", Level: oemcrypto.L1,
		AndroidVersion: "10", PatchLevel: "2019-10", CDMVersion: "13.0",
		SystemID: systemIDModern, Keybox: KeyboxAbsentTEE, Legacy: true, SerialPrefix: "PO",
	})
	MustRegister(Profile{
		Name: "galaxy-s7", Model: "Galaxy S7", Level: oemcrypto.L3,
		AndroidVersion: "8.0", PatchLevel: "2019-04", CDMVersion: "11.0",
		SystemID: systemIDLegacy, Keybox: KeyboxValid, Legacy: true, SerialPrefix: "GX",
	})
	MustRegister(Profile{
		Name: "moto-g5", Model: "Moto G5", Level: oemcrypto.L3,
		AndroidVersion: "9", PatchLevel: "2019-12", CDMVersion: "12.0",
		SystemID: systemIDLegacy, Keybox: KeyboxValid, Legacy: true, SerialPrefix: "MG",
	})
	MustRegister(Profile{
		Name: "oneplus-5", Model: "OnePlus 5", Level: oemcrypto.L3,
		AndroidVersion: "10", PatchLevel: "2020-09", CDMVersion: "14.0",
		SystemID: systemIDLegacy, Keybox: KeyboxValid, Legacy: true, SerialPrefix: "OP",
	})
	MustRegister(Profile{
		Name: "shield-tv", Model: "Shield TV", Level: oemcrypto.L1,
		AndroidVersion: "11", PatchLevel: "2021-06", CDMVersion: "14.0",
		SystemID: systemIDModern, Keybox: KeyboxAbsentTEE, SerialPrefix: "SH",
	})
	MustRegister(Profile{
		Name: "l3-revoked", Model: "Generic L3 Phone (revoked keybox)", Level: oemcrypto.L3,
		AndroidVersion: "12", PatchLevel: "2021-12", CDMVersion: CurrentCDMVersion,
		SystemID: systemIDLegacy, Keybox: KeyboxRevoked, Legacy: true, SerialPrefix: "RV",
	})
	MustRegister(Profile{
		Name: "tab-l3", Model: "Generic L3 Tablet", Level: oemcrypto.L3,
		AndroidVersion: "13", PatchLevel: "2022-06", CDMVersion: CurrentCDMVersion,
		SystemID: systemIDLegacy, Keybox: KeyboxValid, SerialPrefix: "TB",
	})
}
