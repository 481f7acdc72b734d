package reskit

import "reskit/internal/ckpt"

// numericsEpoch names the generation of the numerical kernels behind
// run payloads. ConfigFingerprint hashes it ahead of the configuration
// facets: a kernel change moves payload bits under an unchanged
// configuration, so snapshots and fleet workers from before it must be
// refused, not merged. Bump it whenever a kernel change moves any
// sampled value or flips any policy decision. numerics/1 brought the
// AS241 normal quantile; numerics/2 samples truncated Gamma and Beta
// laws through inversion tables, which move those draws by up to 1e-12
// in u; numerics/3 decides the dynamic rule from certified cubic cells
// and integrates between the kinks of bounded laws, which flips
// decisions the linear table got wrong (V11) and moves W_int for
// truncated or uniform laws.
const numericsEpoch = "numerics/3"

// ConfigFingerprint hashes an ordered list of configuration facets,
// preceded by the numerics epoch, into the fingerprint stored in run
// snapshots, so resuming under a different configuration or numerical
// kernel is detected instead of silently producing wrong numbers.
func ConfigFingerprint(parts ...string) uint64 {
	return ckpt.Fingerprint(append([]string{numericsEpoch}, parts...)...)
}
