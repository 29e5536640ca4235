// Command bench is a second module whose binary is the only user of
// a.UsedByBench.
package main

import "fix/internal/a"

func main() {
	a.UsedByBench()
}
