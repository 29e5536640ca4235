package faults

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func TestNilInjectorIsInert(t *testing.T) {
	var inj *Injector
	if p := inj.Next(); p.Active() {
		t.Fatalf("nil injector produced %+v", p)
	}
	payload := []byte("unchanged")
	if got := inj.CorruptBytes(payload); !bytes.Equal(got, []byte("unchanged")) {
		t.Fatalf("nil injector corrupted payload: %q", got)
	}
	if inj.Ops() != 0 || inj.Snapshot() != (Stats{}) {
		t.Fatal("nil injector accumulated state")
	}
}

func TestZeroConfigInjectsNothing(t *testing.T) {
	inj := New(Config{})
	for i := 0; i < 1000; i++ {
		if p := inj.Next(); p.Active() {
			t.Fatalf("op %d: zero config produced %+v", i, p)
		}
	}
	s := inj.Snapshot()
	if s.Ops != 1000 || s.Fails+s.Corrupts+s.Drops+s.Delays+s.Stucks != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestEveryNthIsExact(t *testing.T) {
	inj := New(Config{FailEvery: 3})
	for op := 1; op <= 30; op++ {
		p := inj.Next()
		want := op%3 == 0
		if p.Fail != want {
			t.Fatalf("op %d: fail = %v, want %v", op, p.Fail, want)
		}
	}
	if s := inj.Snapshot(); s.Fails != 10 {
		t.Fatalf("fails = %d, want 10", s.Fails)
	}
}

func TestRateIsDeterministicUnderSeed(t *testing.T) {
	run := func() []Plan {
		inj := New(Config{Seed: 42, FailRate: 0.3, CorruptRate: 0.2, Delay: time.Millisecond, DelayRate: 0.1})
		plans := make([]Plan, 200)
		for i := range plans {
			plans[i] = inj.Next()
		}
		return plans
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d: %+v != %+v under the same seed", i, a[i], b[i])
		}
	}
	// A different seed must produce a different sequence.
	injC := New(Config{Seed: 43, FailRate: 0.3, CorruptRate: 0.2, Delay: time.Millisecond, DelayRate: 0.1})
	same := true
	for i := range a {
		if injC.Next() != a[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical sequences")
	}
}

func TestFullFailRate(t *testing.T) {
	inj := New(Config{FailRate: 1})
	for i := 0; i < 50; i++ {
		if p := inj.Next(); !p.Fail {
			t.Fatalf("op %d did not fail at rate 1.0", i)
		}
	}
}

func TestWindowConfinesFaults(t *testing.T) {
	inj := New(Config{FailRate: 1, WindowStart: 10, WindowLen: 5})
	for op := 1; op <= 30; op++ {
		p := inj.Next()
		want := op >= 10 && op < 15
		if p.Fail != want {
			t.Fatalf("op %d: fail = %v, want %v", op, p.Fail, want)
		}
	}
}

func TestOpenEndedWindow(t *testing.T) {
	inj := New(Config{FailEvery: 1, WindowStart: 5})
	for op := 1; op <= 20; op++ {
		if p := inj.Next(); p.Fail != (op >= 5) {
			t.Fatalf("op %d: fail = %v", op, p.Fail)
		}
	}
}

func TestStuckAfterLatchesAndIgnoresWindow(t *testing.T) {
	inj := New(Config{StuckAfter: 4, WindowStart: 100})
	for op := 1; op <= 10; op++ {
		p := inj.Next()
		if p.Stuck != (op >= 4) {
			t.Fatalf("op %d: stuck = %v", op, p.Stuck)
		}
		if p.Stuck && (p.Fail || p.Drop || p.Corrupt || p.Delay > 0) {
			t.Fatalf("op %d: stuck plan carries other faults: %+v", op, p)
		}
	}
}

func TestTerminalOutcomesAreExclusive(t *testing.T) {
	inj := New(Config{Seed: 7, FailRate: 0.9, DropRate: 0.9, CorruptRate: 0.9})
	for i := 0; i < 500; i++ {
		p := inj.Next()
		n := 0
		for _, b := range []bool{p.Fail, p.Drop, p.Corrupt} {
			if b {
				n++
			}
		}
		if n > 1 {
			t.Fatalf("op %d: %d terminal outcomes in %+v", i, n, p)
		}
	}
}

func TestDelayComposesWithFailure(t *testing.T) {
	inj := New(Config{Delay: time.Millisecond, DelayEvery: 2, FailEvery: 2})
	p := inj.Next() // op 1: nothing
	if p.Active() {
		t.Fatalf("op 1 = %+v", p)
	}
	p = inj.Next() // op 2: delay and fail together
	if p.Delay != time.Millisecond || !p.Fail {
		t.Fatalf("op 2 = %+v, want delay+fail", p)
	}
}

func TestCorruptBytesAlwaysChangesPayload(t *testing.T) {
	inj := New(Config{Seed: 9})
	for _, size := range []int{1, 2, 63, 64, 4096} {
		orig := bytes.Repeat([]byte{0xAB}, size)
		got := inj.CorruptBytes(append([]byte(nil), orig...))
		if bytes.Equal(orig, got) {
			t.Fatalf("size %d: payload unchanged", size)
		}
		if len(got) != size {
			t.Fatalf("size %d: length changed to %d", size, len(got))
		}
	}
	if got := inj.CorruptBytes(nil); got != nil {
		t.Fatalf("nil payload grew: %v", got)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{FailRate: -0.1},
		{FailRate: 1.5},
		{CorruptRate: 2},
		{DropRate: -1},
		{DelayRate: 1.01},
		{FailEvery: -1},
		{StuckAfter: -5},
		{WindowLen: -2},
		{Delay: -time.Second},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted an invalid config")
		}
	}()
	New(Config{FailRate: 2})
}

func TestEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero config enabled")
	}
	if (Config{Delay: time.Second}).Enabled() {
		t.Fatal("delay with no trigger enabled")
	}
	for _, cfg := range []Config{
		{FailRate: 0.1}, {FailEvery: 2}, {CorruptRate: 0.1}, {DropEvery: 3},
		{Delay: time.Millisecond, DelayRate: 0.5}, {StuckAfter: 1},
	} {
		if !cfg.Enabled() {
			t.Errorf("config %+v reported disabled", cfg)
		}
	}
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("seed=7, fail-rate=0.25,fail-every=4,corrupt-rate=0.5,drop-every=10,delay=2ms,delay-every=5,stuck-after=100,window-start=10,window-len=50")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		Seed: 7, FailRate: 0.25, FailEvery: 4, CorruptRate: 0.5, DropEvery: 10,
		Delay: 2 * time.Millisecond, DelayEvery: 5, StuckAfter: 100,
		WindowStart: 10, WindowLen: 50,
	}
	if cfg != want {
		t.Fatalf("cfg = %+v, want %+v", cfg, want)
	}
	if cfg, err := ParseSpec("  "); err != nil || cfg.Enabled() {
		t.Fatalf("empty spec: %+v, %v", cfg, err)
	}
	for _, bad := range []string{"fail-rate", "bogus=1", "fail-rate=x", "fail-rate=3",
		"fail-rate=NaN", "corrupt-rate=nan", "drop-rate=NaN", "delay-rate=NaN"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// FuzzParseSpec: whatever ParseSpec accepts passes Validate, with every
// rate in [0, 1].
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"seed=7, fail-rate=0.25,fail-every=4,corrupt-rate=0.5,drop-every=10,delay=2ms,delay-every=5,stuck-after=100,window-start=10,window-len=50",
		"fail-rate=NaN", "delay-rate=1,delay=1s", "stuck-after=3", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) accepted a config Validate rejects: %v", spec, err)
		}
		for _, r := range []float64{cfg.FailRate, cfg.CorruptRate, cfg.DropRate, cfg.DelayRate} {
			if !(r >= 0 && r <= 1) {
				t.Fatalf("ParseSpec(%q) accepted rate %v", spec, r)
			}
		}
	})
}

func TestErrInjectedIdentity(t *testing.T) {
	wrapped := errorsJoin()
	if !errors.Is(wrapped, ErrInjected) {
		t.Fatal("wrapped injected error lost its identity")
	}
}

func errorsJoin() error {
	return &wrapErr{}
}

type wrapErr struct{}

func (*wrapErr) Error() string { return "device: injected" }
func (*wrapErr) Unwrap() error { return ErrInjected }
