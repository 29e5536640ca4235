package simtime

import (
	"testing"

	"dlbooster/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
