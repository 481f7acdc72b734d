// Package optimize provides the scalar root-finding and one-dimensional
// maximization routines used to locate optimal checkpoint instants and
// optimal task counts in the reservation-checkpointing library.
//
// Root finders: Bisect (guaranteed, slow) and Brent (guaranteed bracket
// with superlinear convergence — the default).
//
// Maximizers: GoldenSection (derivative-free, guaranteed for unimodal
// objectives — exactly the structure of E(W(X)) on [a, b], which the paper
// proves concave for every studied law), MaxGridRefine (coarse scan
// followed by local refinement, robust when unimodality is uncertain), and
// ArgmaxInt (the floor/ceil comparison around a continuous relaxation
// optimum used by the static strategy of Section 4.2).
package optimize
