// Command app is the fixture's binary.
package main

import "fix/internal/a"

func main() {
	a.Live()
	a.Reached()
}
