// Package backends implements the paper's three baselines next to
// DLBooster: the CPU-based online decoder (burning cores), the
// LMDB-style offline store reader, and the nvJPEG-style GPU decoder.
// Each is a *core.Booster built by core.NewHost: a baseline supplies
// only its decode function and its lane count, and runs the same epoch
// loop, failure policy, batch plane (pool, Full queue, tiered cache,
// replay) and telemetry as DLBooster's FPGA boards. That is what lets
// the evaluation swap backends under an unchanged engine — the
// pluggability claim of §3.1/§4.2.
package backends
