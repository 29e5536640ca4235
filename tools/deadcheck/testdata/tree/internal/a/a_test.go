package a

import "testing"

// TestDead calls Dead; a test is not a binary, so Dead stays unreached.
func TestDead(t *testing.T) { Dead() }
