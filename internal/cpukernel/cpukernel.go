// Package cpukernel is the capability registry for the CPU decode
// kernels: the pluggable fast implementations of the three hot decode
// loops (iDCT, YCbCr→RGB, bilinear resize) register here by name, the
// best available one is selected at init, and a kill switch pins the
// portable scalar reference everywhere.
//
// The pattern deliberately mirrors the FPGA mirror registry
// (internal/fpga): implementations are deployment identifiers that
// register by name with a priority and an availability probe, and a
// consumer picks the active one at run time. Unlike mirrors, kernel
// selection is process-global — the kernels are pure functions over
// bytes, so there is nothing per-device about them — and every fast
// implementation is required to be numerically exact against the scalar
// reference (parity-tested byte for byte in the packages that register
// them), so flipping the switch changes speed, never output.
//
// Kill switches, strongest first:
//
//   - the DLBOOSTER_NO_SIMD environment variable (any non-empty value)
//     pins "scalar" before main runs;
//   - SetScalarOnly(true) pins "scalar" at run time (wired to the
//     dlbench -no-simd flag).
package cpukernel

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// Impl describes one registered kernel implementation.
type Impl struct {
	// Name is the implementation's deployment identifier ("scalar",
	// "swar", …).
	Name string
	// Priority orders selection: the highest-priority available
	// implementation wins. The scalar reference registers at 0; pure-Go
	// SWAR registers above it; a future assembly kernel would register
	// higher still.
	Priority int
	// Available reports whether the host can run this implementation
	// (nil means always available — the case for pure-Go kernels).
	Available func() bool
}

// ScalarName is the name of the portable reference implementation,
// always registered and always available.
const ScalarName = "scalar"

var (
	mu         sync.RWMutex
	impls      = map[string]Impl{ScalarName: {Name: ScalarName}}
	scalarOnly atomic.Bool
	// fast caches the selection as a single atomic so the per-image hot
	// paths pay one atomic load, not a registry lookup.
	fast atomic.Bool
	// activeName is the resolved implementation name.
	activeName atomic.Value // string
)

func init() {
	activeName.Store(ScalarName)
	if os.Getenv("DLBOOSTER_NO_SIMD") != "" {
		scalarOnly.Store(true)
	}
}

// Register adds a kernel implementation and re-runs selection.
// Registering a duplicate name panics: kernel names are deployment
// identifiers, exactly like mirror names.
func Register(i Impl) {
	if i.Name == "" {
		panic("cpukernel: registering kernel with empty name")
	}
	mu.Lock()
	if _, dup := impls[i.Name]; dup {
		mu.Unlock()
		panic(fmt.Sprintf("cpukernel: duplicate kernel %q", i.Name))
	}
	impls[i.Name] = i
	mu.Unlock()
	reselect()
}

// Names lists registered implementations, sorted.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	names := make([]string, 0, len(impls))
	for n := range impls {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Active returns the name of the selected implementation.
func Active() string { return activeName.Load().(string) }

// Fast reports whether a non-scalar implementation is active — the
// one-atomic-load check the per-image decode paths make.
func Fast() bool { return fast.Load() }

// SetScalarOnly engages (or releases) the kill switch: while set, the
// scalar reference is selected regardless of what else is registered.
// It is safe to call from any goroutine; decodes already in flight
// finish on whichever kernels they picked up.
func SetScalarOnly(disable bool) {
	scalarOnly.Store(disable)
	reselect()
}

// ScalarOnly reports whether the kill switch is engaged.
func ScalarOnly() bool { return scalarOnly.Load() }

// reselect recomputes the active implementation: the highest-priority
// available registrant, or scalar under the kill switch. Ties break by
// name so selection is deterministic.
func reselect() {
	if scalarOnly.Load() {
		activeName.Store(ScalarName)
		fast.Store(false)
		return
	}
	mu.RLock()
	best := impls[ScalarName]
	for _, i := range impls {
		if i.Available != nil && !i.Available() {
			continue
		}
		if i.Priority > best.Priority || (i.Priority == best.Priority && i.Name < best.Name) {
			best = i
		}
	}
	mu.RUnlock()
	activeName.Store(best.Name)
	fast.Store(best.Name != ScalarName)
}
