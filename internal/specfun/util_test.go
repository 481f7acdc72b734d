package specfun

import "testing"

func TestClamp01(t *testing.T) {
	if Clamp01(-0.1) != 0 || Clamp01(1.2) != 1 || Clamp01(0.37) != 0.37 {
		t.Fatalf("Clamp01 wrong")
	}
}
