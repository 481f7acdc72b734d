// Package quad provides the one-dimensional numerical integration routines
// that back every expectation computed by the reservation-checkpointing
// library: an adaptive Gauss–Kronrod (G7, K15) integrator with error
// control, in a scalar and a batched form, a transform for semi-infinite
// domains, and adaptive Simpson quadrature.
//
// The integrands in this library (Section 4.2 and 4.3 of Barbut et al.,
// FTXS'23) are smooth products of polynomial, Gaussian and Gamma factors;
// the adaptive Gauss–Kronrod integrator resolves them to ~1e-12 relative
// accuracy in a few dozen panels, and every runtime integral goes through
// it. Adaptive Simpson shares no code with it and is kept as the
// independent reference that tests check Kronrod against.
package quad
