#ifndef PAQOC_QOC_DEVICE_H_
#define PAQOC_QOC_DEVICE_H_

#include <string>
#include <vector>

#include "linalg/matrix.h"

namespace paqoc {

/**
 * Sparse form of one control Hamiltonian H_k: row i holds at most one
 * nonzero, `phase[i]` (+-1 or +-i, bit for bit the dense entry) at
 * column `column[i]`; `phase[i]` == 0 marks an all-zero row. GRAPE's
 * gradient reads Tr(R H_k F) through it (kernels::traceRowMap)
 * instead of forming H_k F.
 */
struct ControlRowMap
{
    std::vector<std::size_t> column;
    std::vector<Complex> phase;
};

/**
 * Control-Hamiltonian model of a transmon subsystem with XY coupling,
 * the platform of the paper's evaluation (Section VI: control field
 * limit u_max = 0.02 GHz for two-qubit XY terms, 5 * u_max for
 * single-qubit rotation fields; we express amplitudes in rad/dt).
 *
 * The device covers only the local qubits of one customized gate
 * (1 to ~3 qubits), with sigma_x/sigma_y drives per qubit and an
 * (XX + YY)/2 exchange control per coupled pair. The drift Hamiltonian
 * is zero in the rotating frame; Eq. (1) of the paper then reduces to
 * H(t) = sum_k alpha_k(t) H_k, which is exactly what GRAPE optimizes.
 */
class DeviceModel
{
  public:
    /** Amplitude bound of the XY exchange control, in rad/dt. */
    static constexpr double kTwoQubitBound = 0.02;
    /** Amplitude bound of single-qubit drives (5 * u_max). */
    static constexpr double kOneQubitBound = 0.1;

    /**
     * Build a model over n local qubits coupled along the given edges.
     * Edges default to a path 0-1-...-(n-1), which is the coupling
     * shape of any connected <=3-qubit region of a grid.
     */
    explicit DeviceModel(int num_qubits,
                         std::vector<std::pair<int, int>> couplings = {});

    int numQubits() const { return num_qubits_; }
    std::size_t dim() const { return std::size_t{1} << num_qubits_; }

    std::size_t numControls() const { return controls_.size(); }
    const Matrix &control(std::size_t k) const { return controls_[k]; }
    const ControlRowMap &controlRowMap(std::size_t k) const
    { return row_maps_[k]; }
    double bound(std::size_t k) const { return bounds_[k]; }
    const std::string &controlName(std::size_t k) const
    { return names_[k]; }

    /**
     * Assemble H(t) for one time slice given the control amplitudes
     * (one per control, already bounded).
     */
    Matrix sliceHamiltonian(const std::vector<double> &amplitudes) const;

    /**
     * Workspace variant: assembles H(t) into `h` (resized as needed)
     * with no temporaries. Bit-identical to sliceHamiltonian; this is
     * what the GRAPE inner loop calls once per slice per iteration.
     */
    void sliceHamiltonianInto(const std::vector<double> &amplitudes,
                              Matrix &h) const;

  private:
    /** Append a control with its row map; rejects any other form. */
    void addControl(Matrix h, double bound, std::string name);

    int num_qubits_;
    std::vector<Matrix> controls_;
    std::vector<ControlRowMap> row_maps_;
    std::vector<double> bounds_;
    std::vector<std::string> names_;
};

} // namespace paqoc

#endif // PAQOC_QOC_DEVICE_H_
