#!/usr/bin/env python3
"""Reference table for the inversion tables of truncated Gamma and Beta laws.

Prints the Go file internal/dist/invq_ref_test.go, read by
TestInversionTableAccuracy in internal/dist/inversion_test.go. For each
tabled test law it lists

  * the tabled range [tail_lo, 1 - tail_hi] the inversion table must
    cover: on each side the first rung of the ladder 1e-9, 1e-8, ..., 1e-3
    at which the doubles next to the crossing point move the truncated CDF
    by at most 2 * eps / 16 (eps = 1e-12), the rule of
    Truncated.invEnd in internal/dist/inversion.go;
  * points {u, x, f} with u a double inside that range, x = F^{-1}(u) for
    the truncated CDF F evaluated by mpmath at 80 significant digits and
    rounded once to the nearest double, and f the truncated density at x.

The test asserts f * |Q(u) - x| <= eps at every point, the first-order
u-error of the table's quantile Q.

Usage (offline; needs only mpmath):

    python3 scripts/invq_ref.py > internal/dist/invq_ref_test.go

The points are
  * next to both ends of the tabled range: tail * (1 + 1e-5) inside it;
  * a half-decade ladder through both tails from the ends to 0.02;
  * 24 stratified draws over [0.02, 0.98].
"""

import math
import random
import struct

import mpmath

mpmath.mp.dps = 80

EPS = 1e-12
RESOLUTION = EPS / 16
TAILS = [1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3]

# (family, p1, p2, lo, hi, why)
LAWS = [
    ("gamma", 6, 0.5, 0, math.inf, "the e2ebench campaign-gamma task law"),
    ("gamma", 2, 1, 0.5, 8, "a two-sided truncation"),
    ("beta", 2, 5, 0.1, 0.9, "a two-sided Beta truncation"),
    ("gamma", 0.5, 1, 0, math.inf, "density singular at 0"),
    ("beta", 0.5, 0.5, 0, 1, "density singular at both ends"),
    ("gamma", 1, 0.5, 0, math.inf, "the Figure 6 and 9 task law"),
    ("gamma", 25, 0.2, 3, 9, "examples/trace_fitting's checkpoint law"),
    ("beta", 0.2, 3, 0, 1, "x ~ u^5 at 0: the flat end"),
    ("beta", 20, 0.7, 0, 1, "singular at 1 only"),
]


class Law:
    def __init__(self, family, p1, p2, lo, hi):
        self.family, self.lo, self.hi = family, lo, hi
        self.p1, self.p2 = mpmath.mpf(p1), mpmath.mpf(p2)
        if family == "gamma":
            self.lognorm = mpmath.loggamma(self.p1) + self.p1 * mpmath.log(self.p2)
        else:
            self.lognorm = mpmath.log(mpmath.beta(self.p1, self.p2))
        self.f_lo = self.base_cdf(lo)
        self.f_hi = mpmath.mpf(1) if math.isinf(hi) else self.base_cdf(hi)
        self.mass = self.f_hi - self.f_lo

    def base_cdf(self, x):
        x = mpmath.mpf(x)
        if x <= 0:
            return mpmath.mpf(0)
        if self.family == "gamma":
            return mpmath.gammainc(self.p1, 0, x / self.p2, regularized=True)
        if x >= 1:
            return mpmath.mpf(1)
        return mpmath.betainc(self.p1, self.p2, 0, x, regularized=True)

    def base_pdf(self, x):
        x = mpmath.mpf(x)
        if self.family == "gamma":
            return mpmath.exp((self.p1 - 1) * mpmath.log(x) - x / self.p2 - self.lognorm)
        return mpmath.exp((self.p1 - 1) * mpmath.log(x)
                          + (self.p2 - 1) * mpmath.log1p(-x) - self.lognorm)

    def cdf(self, x):
        """Truncated CDF at x (a double or an mpf)."""
        if x <= self.lo:
            return mpmath.mpf(0)
        if x >= self.hi:
            return mpmath.mpf(1)
        return (self.base_cdf(x) - self.f_lo) / self.mass

    def pdf(self, x):
        return self.base_pdf(x) / self.mass

    def cross(self, u):
        """Smallest double x with cdf(x) >= u: bisection over the bit
        patterns of the non-negative doubles, as Truncated.cdfCross."""
        a = bits(max(self.lo, 0.0))
        b = bits(self.hi)
        while b - a > 1:
            m = a + (b - a) // 2
            if self.cdf(unbits(m)) < u:
                a = m
            else:
                b = m
        return unbits(b)

    def tail(self, upper):
        for tail in TAILS:
            u = 1 - tail if upper else tail
            x = self.cross(mpmath.mpf(u))
            step = self.cdf(math.nextafter(x, math.inf)) - self.cdf(math.nextafter(x, -math.inf))
            if step <= 2 * RESOLUTION:
                return tail
        raise RuntimeError("no rung passes the resolution test")

    def quantile(self, u):
        """F^{-1}(u) at the working precision, for a double u in (0, 1)."""
        U = mpmath.mpf(u)
        hi = self.cross(U)
        lo = math.nextafter(hi, -math.inf)
        a, b = mpmath.mpf(lo), mpmath.mpf(hi)
        x = b
        # 60 of the 80 digits: far more than rounding to a double needs,
        # and well above the noise floor of the 80-digit CDF.
        tol = mpmath.mpf(10) ** (20 - mpmath.mp.dps)
        for _ in range(64):
            # Newton inside the one-ulp bracket, bisecting when a step
            # would leave it.
            fx = self.cdf(x) - U
            if fx < 0:
                a = x
            else:
                b = x
            xn = x - fx / self.pdf(x)
            if abs(xn - x) <= tol * abs(x):
                return xn
            if not (a < xn < b):
                xn = (a + b) / 2
            x = xn
        raise RuntimeError("quantile did not converge at u = %r" % u)


def bits(v):
    return struct.unpack(">Q", struct.pack(">d", v))[0]


def unbits(n):
    return struct.unpack(">d", struct.pack(">Q", n))[0]


def hexfloat(v):
    """Shortest exact Go hex-float literal for the double v."""
    if v == 0:
        return "0"
    if math.isinf(v):
        return "math.Inf(1)"
    sign = "-" if v < 0 else ""
    mant, exp = abs(v).hex()[2:].split("p")
    head, _, frac = mant.partition(".")
    frac = frac.rstrip("0")
    return "%s0x%s%sp%s" % (sign, head, "." + frac if frac else "", exp.lstrip("+"))


def golit(v):
    """A Go literal for a law parameter or bound."""
    return "math.Inf(1)" if math.isinf(v) else repr(float(v))


def points(tail_lo, tail_hi, rnd):
    us = [tail_lo * (1 + 1e-5)]
    j = 1
    while tail_lo * 10 ** (j / 2) < 0.02:
        us.append(tail_lo * 10 ** (j / 2))
        j += 1
    us += [0.02 + 0.96 * (i + rnd.random()) / 24 for i in range(24)]
    upper = []
    j = 1
    while tail_hi * 10 ** (j / 2) < 0.02:
        upper.append(1 - tail_hi * 10 ** (j / 2))
        j += 1
    us += upper[::-1]
    us.append(1 - tail_hi * (1 + 1e-5))
    return us


def main():
    rnd = random.Random(17)
    print("// Code generated by scripts/invq_ref.py. DO NOT EDIT.")
    print()
    print("package dist")
    print()
    print('import "math"')
    print()
    print("// invQuantileRef lists, per tabled test law, the tabled range the")
    print("// resolution ladder gives and points {u, x, f}: x = F^{-1}(u) for the")
    print("// truncated CDF evaluated with mpmath at %d digits and rounded once to" % mpmath.mp.dps)
    print("// a double, f the truncated density at x.")
    print("var invQuantileRef = []invRefLaw{")
    for family, p1, p2, lo, hi, why in LAWS:
        law = Law(family, p1, p2, lo, hi)
        tail_lo, tail_hi = law.tail(False), law.tail(True)
        print("\t// %s" % why)
        print("\t{%s, %s, %s, %s, %s, %s, %s, []invRefPoint{" % (
            "true" if family == "beta" else "false", golit(p1), golit(p2), golit(lo), golit(hi),
            golit(tail_lo), golit(tail_hi)))
        for u in points(tail_lo, tail_hi, rnd):
            x = law.quantile(u)
            print("\t\t{%s, %s, %s}," % (hexfloat(u), hexfloat(float(x)), hexfloat(float(law.pdf(x)))))
        print("\t}},")
    print("}")


if __name__ == "__main__":
    main()
