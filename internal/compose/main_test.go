package compose

import (
	"os"
	"testing"

	"bgpvr/internal/scratch"
)

// The package's tests run with the recycler poisoning what is released
// (NaN samples and pixels, 0xFF bytes), so a use after release, or a
// reliance on a taken buffer being zero, fails a pin or a comparison.
func TestMain(m *testing.M) {
	scratch.Poison(true)
	os.Exit(m.Run())
}
