package specfun

import "math"

const (
	invSqrt2   = 0.7071067811865475244008443621048490 // 1/sqrt(2)
	invSqrt2Pi = 0.3989422804014326779399460599343819 // 1/sqrt(2*pi)
	ln2Pi      = 1.8378770664093454835606594728112353 // ln(2*pi)
)

// NormPDF returns the density of the standard Normal law at x.
func NormPDF(x float64) float64 {
	return invSqrt2Pi * math.Exp(-0.5*x*x)
}

// LogNormPDF returns the logarithm of the standard Normal density at x.
// It stays finite for |x| up to the overflow threshold of x*x.
func LogNormPDF(x float64) float64 {
	return -0.5*x*x - 0.5*ln2Pi
}

// NormCDF returns Phi(x), the standard Normal cumulative distribution
// function, evaluated through erfc for full relative accuracy in the left
// tail.
func NormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x*invSqrt2)
}

// NormQuantile returns the standard Normal quantile Phi^{-1}(p) for
// p in (0, 1). It returns -Inf for p == 0, +Inf for p == 1, and NaN
// outside [0, 1].
//
// It is Wichura's algorithm AS241 (PPND16, Applied Statistics 37(3),
// 1988), the kernel behind R's qnorm and Python's NormalDist.inv_cdf: one
// degree-7 rational function per branch — the centre |p - 1/2| <= 0.425,
// the tail r = sqrt(-ln min(p, 1-p)) <= 5, and the deep tail beyond —
// with no refinement step, so a call costs at most one log and one sqrt.
// The result is within a few ulp of Phi^{-1}(p) for every p down to the
// smallest subnormal, and NormQuantile(1-p) == -NormQuantile(p) holds
// exactly whenever 1-p is exact in floating point.
func NormQuantile(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return math.Inf(-1)
	case p == 1:
		return math.Inf(1)
	}
	q := p - 0.5
	if math.Abs(q) <= 0.425 {
		r := 0.180625 - q*q
		num := (((((((2.5090809287301226727e+3*r+
			3.3430575583588128105e+4)*r+
			6.7265770927008700853e+4)*r+
			4.5921953931549871457e+4)*r+
			1.3731693765509461125e+4)*r+
			1.9715909503065514427e+3)*r+
			1.3314166789178437745e+2)*r +
			3.3871328727963666080e+0) * q
		den := (((((((5.2264952788528545610e+3*r+
			2.8729085735721942674e+4)*r+
			3.9307895800092710610e+4)*r+
			2.1213794301586595867e+4)*r+
			5.3941960214247511077e+3)*r+
			6.8718700749205790830e+2)*r+
			4.2313330701600911252e+1)*r +
			1.0)
		return num / den
	}
	r := p
	if q > 0 {
		r = 1 - p
	}
	if r >= 0x1p-1022 {
		r = math.Sqrt(-math.Log(r))
	} else {
		// Subnormal r: lift it into the normal range first, because the
		// amd64 math.Log reads the exponent field without normalising
		// and returns about -709 for every subnormal argument.
		r = math.Sqrt(54*math.Ln2 - math.Log(r*0x1p54))
	}
	var num, den float64
	if r <= 5 {
		r -= 1.6
		num = (((((((7.74545014278341407640e-4*r+
			2.27238449892691845833e-2)*r+
			2.41780725177450611770e-1)*r+
			1.27045825245236838258e+0)*r+
			3.64784832476320460504e+0)*r+
			5.76949722146069140550e+0)*r+
			4.63033784615654529590e+0)*r +
			1.42343711074968357734e+0)
		den = (((((((1.05075007164441684324e-9*r+
			5.47593808499534494600e-4)*r+
			1.51986665636164571966e-2)*r+
			1.48103976427480074590e-1)*r+
			6.89767334985100004550e-1)*r+
			1.67638483018380384940e+0)*r+
			2.05319162663775882187e+0)*r +
			1.0)
	} else {
		r -= 5
		num = (((((((2.01033439929228813265e-7*r+
			2.71155556874348757815e-5)*r+
			1.24266094738807843860e-3)*r+
			2.65321895265761230930e-2)*r+
			2.96560571828504891230e-1)*r+
			1.78482653991729133580e+0)*r+
			5.46378491116411436990e+0)*r +
			6.65790464350110377720e+0)
		den = (((((((2.04426310338993978564e-15*r+
			1.42151175831644588870e-7)*r+
			1.84631831751005468180e-5)*r+
			7.86869131145613259100e-4)*r+
			1.48753612908506148525e-2)*r+
			1.36929880922735805310e-1)*r+
			5.99832206555887937690e-1)*r +
			1.0)
	}
	x := num / den
	if q < 0 {
		x = -x
	}
	return x
}
