// Package leakcheck fails a test binary that ends with a goroutine its
// tests started: each package's TestMain calls Main.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// grace is how long Main waits for goroutines that are already on their
// way out (a closed queue's consumer, a timer's callback) to end.
const grace = time.Second

// Main runs m's tests and exits with their code. If they passed but more
// goroutines are left than there were before them, still after grace, it
// prints the goroutines left, grouped by the function that created them,
// and exits 1.
func Main(m *testing.M) {
	before := len(goroutines())
	code := m.Run()
	if code == 0 {
		left := goroutines()
		for deadline := time.Now().Add(grace); len(left) > before && time.Now().Before(deadline); left = goroutines() {
			time.Sleep(10 * time.Millisecond)
		}
		if len(left) > before {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines before the tests, %d a second after them\n%s", before, len(left), report(left))
			code = 1
		}
	}
	os.Exit(code)
}

// signalLoop creates the goroutine os/signal runs for the life of the
// process once anything calls signal.Notify, as the fuzzing coordinator
// does: it is the process's, not a test's.
const signalLoop = "os/signal.Notify"

// goroutines returns the stack of every goroutine but the caller's and
// the signal loop.
func goroutines() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var stacks []string
	for _, st := range strings.Split(strings.TrimSpace(string(buf)), "\n\n")[1:] { // the first is the caller
		if !strings.HasPrefix(creator(st), signalLoop) {
			stacks = append(stacks, st)
		}
	}
	return stacks
}

// creator is the function that started the goroutine of stack st.
func creator(st string) string {
	_, after, ok := strings.Cut(st, "\ncreated by ")
	if !ok {
		return "(no creator)"
	}
	c, _, _ := strings.Cut(after, "\n")
	c, _, _ = strings.Cut(c, " in goroutine ")
	return c
}

// report groups stacks by creator, the largest group first, with one
// stack of each.
func report(stacks []string) string {
	groups := map[string][]string{}
	for _, st := range stacks {
		groups[creator(st)] = append(groups[creator(st)], st)
	}
	creators := make([]string, 0, len(groups))
	for c := range groups {
		creators = append(creators, c)
	}
	sort.Slice(creators, func(i, j int) bool {
		if a, b := len(groups[creators[i]]), len(groups[creators[j]]); a != b {
			return a > b
		}
		return creators[i] < creators[j]
	})
	var b strings.Builder
	for _, c := range creators {
		fmt.Fprintf(&b, "\n%d created by %s:\n%s\n", len(groups[c]), c, groups[c][0])
	}
	return b.String()
}
