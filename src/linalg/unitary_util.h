#ifndef PAQOC_LINALG_UNITARY_UTIL_H_
#define PAQOC_LINALG_UNITARY_UTIL_H_

#include <array>
#include <cstdint>
#include <vector>

#include "linalg/matrix.h"

namespace paqoc {

/**
 * Eigenphases of a unitary U: the angles theta_j in (-pi, pi] such that
 * the spectrum of U is { e^{i theta_j} }. Computed by simultaneously
 * diagonalizing the Hermitian and anti-Hermitian parts (U is normal).
 */
std::vector<double> unitaryEigenphases(const Matrix &u);

/**
 * Global-phase-optimized spectral phase norm of a unitary:
 *
 *     min_phi  max_j | wrap(theta_j - phi) |
 *
 * This is the quantum-speed-limit proxy used by the analytical latency
 * model: the smallest max |eigenphase| over an (physically irrelevant)
 * global phase. It is subadditive under products, which yields the
 * paper's Observation 1 (merged latency <= sum of latencies).
 */
double spectralPhaseNorm(const Matrix &u);

/**
 * Principal logarithm split into local and entangling Pauli content.
 *
 * Writes U = exp(-iA) with the eigenphases of U centered to minimize
 * their maximal magnitude (global phase removed), then projects the
 * Hermitian generator A onto the Pauli-string basis: strings of weight
 * <= 1 form the local part, weight >= 2 the entangling part. The
 * spectral norms of the two parts are quantum-speed-limit proxies for
 * the single-qubit-drive time and the (much slower) exchange-coupling
 * time a pulse needs, respectively.
 */
struct PauliSplitNorms
{
    /** Spectral norm of the weight-<=1 (local) generator part. */
    double localNorm = 0.0;
    /** Spectral norm of the weight->=2 (entangling) generator part. */
    double entanglingNorm = 0.0;
    /**
     * Largest per-channel norm of entangling content supported on one
     * *adjacent* qubit pair (qubits couple along a path 0-1-...-n-1,
     * matching DeviceModel): content different channels can drive
     * concurrently.
     */
    double adjacentPairNorm = 0.0;
    /**
     * Norm of the remaining entangling content: weight->=3 strings and
     * strings on non-adjacent pairs, which cost extra because they
     * must be routed through intermediate qubits.
     */
    double hardNorm = 0.0;
};

PauliSplitNorms pauliSplitNorms(const Matrix &u, int num_qubits);

/**
 * Weyl-chamber coordinates (c1, c2, c3) of a 4 x 4 unitary U: the
 * canonical form U = k1 exp(i (c1 XX + c2 YY + c3 ZZ)) k2 with local
 * k1, k2, folded into pi/4 >= c1 >= c2 >= |c3|. CX and CZ give
 * (pi/4, 0, 0), iSWAP (pi/4, pi/4, 0), SWAP (pi/4, pi/4, pi/4).
 * On the face c1 = pi/4 the sign of c3 is not unique. Computed from
 * the eigenphases of m^T m with m = B^dag U B in the magic basis,
 * after scaling U to det 1, folded as Qiskit's weyl_coordinates does.
 */
std::array<double, 3> weylCoordinates(const Matrix &u);

/** Trace (process) fidelity |Tr(U^dagger V)|^2 / d^2 in [0, 1]. */
double traceFidelity(const Matrix &u, const Matrix &v);

/**
 * Global-phase-invariant distance min_phi ||U - e^{i phi} V||_F
 * = sqrt(2d - 2 |Tr(U^dagger V)|).
 */
double phaseInvariantDistance(const Matrix &u, const Matrix &v);

/** True if U ~= e^{i phi} V for some global phase phi. */
bool equalUpToGlobalPhase(const Matrix &u, const Matrix &v,
                          double tol = 1e-6);

/**
 * Deterministic 64-bit hash of a matrix (FNV-1a over the raw entry
 * bytes plus the shape). Used to derive per-gate RNG seeds: every
 * GRAPE run on the same target draws the same initial pulse no matter
 * which thread, batch position, or probe round issues it.
 */
std::uint64_t matrixHash(const Matrix &u);

} // namespace paqoc

#endif // PAQOC_LINALG_UNITARY_UTIL_H_
