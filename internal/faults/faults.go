// Package faults implements a deterministic, seeded fault injector for
// the pipeline's single points of failure: the FPGA decoder boards, the
// NIC fabric, and the NVMe store. DLBooster's design (§3.3–§3.4) chains
// all three in front of the GPUs, so a decode error, a stalled board or
// a dropped frame must degrade the pipeline rather than stall it — and
// the chaos tests that prove it need faults that fire at reproducible
// points, not at the mercy of wall-clock timing.
//
// An Injector owns one operation counter and one seeded PRNG. Each
// protected operation calls Next exactly once and receives a Plan: an
// optional latency spike, then at most one of drop / fail / corrupt /
// stuck. Faults can fire probabilistically (rates, reproducible under a
// fixed seed and call order) or on exact operation counts (every-Nth
// and stuck-after, reproducible regardless of scheduling), and can be
// confined to an operation window so tests can assert that throughput
// recovers once the fault window closes.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrInjected marks a failure produced by an injector rather than by
// the subsystem itself. Callers unwrap with errors.Is.
var ErrInjected = errors.New("faults: injected failure")

// Config selects the fault modes. The zero value injects nothing.
//
// Rates are probabilities in [0, 1] drawn from the seeded PRNG; Every
// counters fire on exact 1-based operation ordinals (Every=3 hits ops
// 3, 6, 9, …), which stays deterministic even when operations race.
// When both a rate and an Every counter are set for the same mode,
// either trigger fires the fault.
type Config struct {
	// Seed fixes the PRNG; 0 means 1 so the zero value stays usable.
	Seed int64

	FailRate  float64 // probability an op returns ErrInjected
	FailEvery int     // every-Nth op returns ErrInjected

	CorruptRate  float64 // probability an op's payload is corrupted
	CorruptEvery int     // every-Nth op's payload is corrupted

	DropRate  float64 // probability an op is silently discarded
	DropEvery int     // every-Nth op is silently discarded

	Delay      time.Duration // latency-spike magnitude
	DelayRate  float64       // probability an op is delayed by Delay
	DelayEvery int           // every-Nth op is delayed by Delay

	// StuckAfter wedges the device permanently starting at this 1-based
	// op ordinal (0 = never). A stuck plan overrides all other modes and
	// ignores the window: a hung device does not recover by itself.
	StuckAfter int

	// WindowStart/WindowLen confine injection (except StuckAfter) to the
	// 1-based op interval [WindowStart, WindowStart+WindowLen). A zero
	// WindowStart means ops are eligible from the first; a zero
	// WindowLen with a nonzero WindowStart leaves the window open-ended.
	WindowStart int
	WindowLen   int
}

// Validate reports configuration errors: rates outside [0, 1] (NaN
// included) or negative counters and durations.
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"fail-rate", c.FailRate},
		{"corrupt-rate", c.CorruptRate},
		{"drop-rate", c.DropRate},
		{"delay-rate", c.DelayRate},
	} {
		if !(r.v >= 0 && r.v <= 1) { // NaN fails both comparisons
			return fmt.Errorf("faults: %s %v outside [0, 1]", r.name, r.v)
		}
	}
	for _, n := range []struct {
		name string
		v    int
	}{
		{"fail-every", c.FailEvery},
		{"corrupt-every", c.CorruptEvery},
		{"drop-every", c.DropEvery},
		{"delay-every", c.DelayEvery},
		{"stuck-after", c.StuckAfter},
		{"window-start", c.WindowStart},
		{"window-len", c.WindowLen},
	} {
		if n.v < 0 {
			return fmt.Errorf("faults: %s %d negative", n.name, n.v)
		}
	}
	if c.Delay < 0 {
		return fmt.Errorf("faults: delay %v negative", c.Delay)
	}
	return nil
}

// Enabled reports whether the configuration can inject anything.
func (c Config) Enabled() bool {
	return c.FailRate > 0 || c.FailEvery > 0 ||
		c.CorruptRate > 0 || c.CorruptEvery > 0 ||
		c.DropRate > 0 || c.DropEvery > 0 ||
		(c.Delay > 0 && (c.DelayRate > 0 || c.DelayEvery > 0)) ||
		c.StuckAfter > 0
}

// Plan is the injector's verdict for one operation: delay first, then
// at most one of the terminal outcomes.
type Plan struct {
	Delay   time.Duration // sleep before the op
	Drop    bool          // discard the op silently
	Fail    bool          // fail the op with ErrInjected
	Corrupt bool          // corrupt the op's payload
	Stuck   bool          // wedge the device permanently
}

// Active reports whether the plan does anything at all, letting hook
// sites skip their fault path entirely on the common no-op plan.
func (p Plan) Active() bool {
	return p.Delay > 0 || p.Drop || p.Fail || p.Corrupt || p.Stuck
}

// Stats counts operations seen and faults injected, by kind.
type Stats struct {
	Ops      int64
	Fails    int64
	Corrupts int64
	Drops    int64
	Delays   int64
	Stucks   int64
}

// Injector hands out Plans. A nil *Injector is valid and injects
// nothing, so hook sites need no nil checks. All methods are safe for
// concurrent use; under concurrency the rate-based draws depend on call
// order, while Every/StuckAfter ordinals remain exact.
type Injector struct {
	cfg Config

	mu         sync.Mutex
	rng        *rand.Rand
	ops        int64
	stats      Stats
	hook       func(kind string, op int64)
	stuckNoted bool
}

// New builds an injector; it panics on an invalid configuration (an
// injector is test/demo apparatus — a bad spec is a caller bug, and
// ParseSpec validates user input first).
func New(cfg Config) *Injector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// SetHook installs an observer called once per injected fault with the
// fault kind ("stuck", "fail", "drop", "corrupt", "delay") and the op
// ordinal that triggered it. The hook runs outside the injector's lock,
// so it may call back into anything — including a flight recorder that
// snapshots the injector. A stuck fault notifies only once, on the op
// that first wedges the device, not on every op the wedge swallows. A
// nil injector ignores the call; a nil hook clears it.
func (i *Injector) SetHook(hook func(kind string, op int64)) {
	if i == nil {
		return
	}
	i.mu.Lock()
	i.hook = hook
	i.mu.Unlock()
}

// Next decides the fate of the next operation.
func (i *Injector) Next() Plan {
	if i == nil {
		return Plan{}
	}
	p, op, kinds, hook := i.nextLocked()
	if hook != nil {
		for _, k := range kinds {
			hook(k, op)
		}
	}
	return p
}

// nextLocked advances the op counter and decides the plan under the
// lock, returning what Next needs to invoke the hook after unlocking.
func (i *Injector) nextLocked() (p Plan, op int64, kinds []string, hook func(string, int64)) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.ops++
	i.stats.Ops++
	op = i.ops
	hook = i.hook

	if i.cfg.StuckAfter > 0 && op >= int64(i.cfg.StuckAfter) {
		p.Stuck = true
		i.stats.Stucks++
		if !i.stuckNoted {
			i.stuckNoted = true
			kinds = append(kinds, "stuck")
		}
		return p, op, kinds, hook
	}
	if !i.inWindowLocked(op) {
		return p, op, nil, hook
	}
	if i.hitLocked(i.cfg.DelayRate, i.cfg.DelayEvery, op) && i.cfg.Delay > 0 {
		p.Delay = i.cfg.Delay
		i.stats.Delays++
		kinds = append(kinds, "delay")
	}
	// Terminal outcomes are mutually exclusive; precedence drop > fail >
	// corrupt keeps one op one fault.
	switch {
	case i.hitLocked(i.cfg.DropRate, i.cfg.DropEvery, op):
		p.Drop = true
		i.stats.Drops++
		kinds = append(kinds, "drop")
	case i.hitLocked(i.cfg.FailRate, i.cfg.FailEvery, op):
		p.Fail = true
		i.stats.Fails++
		kinds = append(kinds, "fail")
	case i.hitLocked(i.cfg.CorruptRate, i.cfg.CorruptEvery, op):
		p.Corrupt = true
		i.stats.Corrupts++
		kinds = append(kinds, "corrupt")
	}
	return p, op, kinds, hook
}

func (i *Injector) inWindowLocked(op int64) bool {
	start := int64(i.cfg.WindowStart)
	if start <= 0 {
		start = 1
	}
	if op < start {
		return false
	}
	if i.cfg.WindowLen > 0 && op >= start+int64(i.cfg.WindowLen) {
		return false
	}
	return true
}

// hitLocked fires when the op ordinal lands on the every-Nth lattice or
// the PRNG draw clears the rate. The draw is consumed only when a rate
// is configured, so Every-only injectors never touch the PRNG and stay
// exact under any interleaving.
func (i *Injector) hitLocked(rate float64, every int, op int64) bool {
	if every > 0 && op%int64(every) == 0 {
		return true
	}
	return rate > 0 && i.rng.Float64() < rate
}

// CorruptBytes deterministically flips bytes of p in place using the
// injector's PRNG: one flip always, plus one more per 64 bytes of
// payload, so any non-empty payload is guaranteed to change. It returns
// p for chaining. A nil injector leaves p untouched.
func (i *Injector) CorruptBytes(p []byte) []byte {
	if i == nil || len(p) == 0 {
		return p
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	flips := 1 + len(p)/64
	for f := 0; f < flips; f++ {
		j := i.rng.Intn(len(p))
		p[j] ^= byte(1 + i.rng.Intn(255)) // nonzero XOR: the byte changes
	}
	return p
}

// Ops returns the number of operations decided so far.
func (i *Injector) Ops() int64 {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.ops
}

// Snapshot returns the counters accumulated so far.
func (i *Injector) Snapshot() Stats {
	if i == nil {
		return Stats{}
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.stats
}

// Config returns the injector's configuration.
func (i *Injector) Config() Config {
	if i == nil {
		return Config{}
	}
	return i.cfg
}

// specKeys maps spec keys to setters, shared by ParseSpec and its error
// message.
var specKeys = map[string]func(*Config, string) error{
	"seed":          func(c *Config, v string) (err error) { c.Seed, err = strconv.ParseInt(v, 10, 64); return },
	"fail-rate":     func(c *Config, v string) (err error) { c.FailRate, err = strconv.ParseFloat(v, 64); return },
	"fail-every":    func(c *Config, v string) (err error) { c.FailEvery, err = strconv.Atoi(v); return },
	"corrupt-rate":  func(c *Config, v string) (err error) { c.CorruptRate, err = strconv.ParseFloat(v, 64); return },
	"corrupt-every": func(c *Config, v string) (err error) { c.CorruptEvery, err = strconv.Atoi(v); return },
	"drop-rate":     func(c *Config, v string) (err error) { c.DropRate, err = strconv.ParseFloat(v, 64); return },
	"drop-every":    func(c *Config, v string) (err error) { c.DropEvery, err = strconv.Atoi(v); return },
	"delay":         func(c *Config, v string) (err error) { c.Delay, err = time.ParseDuration(v); return },
	"delay-rate":    func(c *Config, v string) (err error) { c.DelayRate, err = strconv.ParseFloat(v, 64); return },
	"delay-every":   func(c *Config, v string) (err error) { c.DelayEvery, err = strconv.Atoi(v); return },
	"stuck-after":   func(c *Config, v string) (err error) { c.StuckAfter, err = strconv.Atoi(v); return },
	"window-start":  func(c *Config, v string) (err error) { c.WindowStart, err = strconv.Atoi(v); return },
	"window-len":    func(c *Config, v string) (err error) { c.WindowLen, err = strconv.Atoi(v); return },
}

// SpecKeys lists the keys ParseSpec accepts, sorted, for usage text.
func SpecKeys() []string {
	keys := make([]string, 0, len(specKeys))
	for k := range specKeys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ParseSpec parses a comma-separated key=value fault specification, the
// command-line surface of the injector, e.g.
//
//	fail-rate=0.3,seed=7
//	delay=2ms,delay-every=5,window-start=100,window-len=400
//	stuck-after=64
//
// An empty spec yields the zero Config (nothing injected).
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return cfg, nil
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Config{}, fmt.Errorf("faults: spec field %q is not key=value", field)
		}
		set, known := specKeys[strings.TrimSpace(key)]
		if !known {
			return Config{}, fmt.Errorf("faults: unknown spec key %q (have %s)", key, strings.Join(SpecKeys(), " "))
		}
		if err := set(&cfg, strings.TrimSpace(val)); err != nil {
			return Config{}, fmt.Errorf("faults: spec field %q: %v", field, err)
		}
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}
