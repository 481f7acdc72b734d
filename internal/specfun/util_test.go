package specfun

import (
	"math"
	"testing"
)

func TestLog1mExp(t *testing.T) {
	almostEq(t, Log1mExp(-math.Ln2), math.Log(0.5), 1e-14, "l1me(-ln2)")
	almostEq(t, Log1mExp(-1e-10), math.Log(1e-10), 1e-5, "l1me tiny")
	if !math.IsInf(Log1mExp(0), -1) {
		t.Fatalf("l1me(0) must be -inf")
	}
	if !math.IsNaN(Log1mExp(0.5)) {
		t.Fatalf("l1me(positive) must be NaN")
	}
}

func TestClamp01(t *testing.T) {
	if Clamp01(-0.1) != 0 || Clamp01(1.2) != 1 || Clamp01(0.37) != 0.37 {
		t.Fatalf("Clamp01 wrong")
	}
}
