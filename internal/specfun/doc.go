// Package specfun provides the special mathematical functions required by
// the reservation-checkpointing analysis of Barbut et al. (FTXS'23), built
// exclusively on the Go standard library.
//
// The package covers four families:
//
//   - the standard Normal law: density Phi' (NormPDF), distribution
//     function Phi (NormCDF), its complement, logarithmic variants that are
//     accurate deep in the tails, and the quantile function (NormQuantile,
//     Wichura's AS241 rational approximations, full double precision
//     without a refinement step);
//   - the Lambert W function on its principal branch (LambertW0), together
//     with a log-domain variant LambertWExpArg that evaluates W(e^y)
//     without overflow for arbitrarily large y — exactly the form that
//     appears in the optimal checkpoint instant for truncated Exponential
//     checkpoint durations;
//   - the regularized incomplete gamma functions P(a,x) and Q(a,x)
//     (series and continued-fraction evaluation), which provide the Gamma
//     and Poisson cumulative distribution functions used by the static
//     strategy of Section 4.2 of the paper;
//   - digamma and trigamma, needed for maximum-likelihood fitting of Gamma
//     task-duration laws from execution traces.
//
// All functions are pure, allocation-free and safe for concurrent use.
package specfun
