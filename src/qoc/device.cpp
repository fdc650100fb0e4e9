#include "qoc/device.h"

#include <sstream>

#include "circuit/circuit.h"
#include "common/error.h"
#include "linalg/kernels.h"

namespace paqoc {

namespace {

Matrix
pauliX()
{
    return Matrix{{0.0, 1.0}, {1.0, 0.0}};
}

Matrix
pauliY()
{
    return Matrix{{Complex(0, 0), Complex(0, -1)},
                  {Complex(0, 1), Complex(0, 0)}};
}

} // namespace

DeviceModel::DeviceModel(int num_qubits,
                         std::vector<std::pair<int, int>> couplings)
    : num_qubits_(num_qubits)
{
    PAQOC_FATAL_IF(num_qubits < 1 || num_qubits > 6,
                   "DeviceModel supports 1..6 qubits, got ", num_qubits);
    if (couplings.empty()) {
        for (int i = 0; i + 1 < num_qubits; ++i)
            couplings.emplace_back(i, i + 1);
    }

    // Single-qubit sigma_x / sigma_y drives.
    for (int q = 0; q < num_qubits_; ++q) {
        addControl(embedUnitary(pauliX(), {q}, num_qubits_),
                   kOneQubitBound, "x" + std::to_string(q));
        addControl(embedUnitary(pauliY(), {q}, num_qubits_),
                   kOneQubitBound, "y" + std::to_string(q));
    }

    // XY exchange control per coupled pair: (XX + YY) / 2.
    for (const auto &[a, b] : couplings) {
        PAQOC_FATAL_IF(a < 0 || b < 0 || a >= num_qubits_
                           || b >= num_qubits_ || a == b,
                       "bad coupling edge (", a, ",", b, ")");
        Matrix xy = embedUnitary(kron(pauliX(), pauliX()), {a, b},
                                 num_qubits_)
            + embedUnitary(kron(pauliY(), pauliY()), {a, b}, num_qubits_);
        xy *= Complex(0.5, 0.0);
        std::ostringstream name;
        name << "xy" << a << b;
        addControl(std::move(xy), kTwoQubitBound, name.str());
    }
}

void
DeviceModel::addControl(Matrix h, double bound, std::string name)
{
    const std::size_t n = h.rows();
    ControlRowMap map;
    map.column.assign(n, 0);
    map.phase.assign(n, Complex(0.0, 0.0));
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
            const Complex v = h(r, c);
            if (v == Complex(0.0, 0.0))
                continue;
            const bool unit = v == Complex(1.0, 0.0)
                || v == Complex(-1.0, 0.0) || v == Complex(0.0, 1.0)
                || v == Complex(0.0, -1.0);
            PAQOC_FATAL_IF(!unit || map.phase[r] != Complex(0.0, 0.0),
                           "control ", name,
                           " is not one +-1/+-i entry per row");
            map.column[r] = c;
            map.phase[r] = v;
        }
    }
    controls_.push_back(std::move(h));
    row_maps_.push_back(std::move(map));
    bounds_.push_back(bound);
    names_.push_back(std::move(name));
}

Matrix
DeviceModel::sliceHamiltonian(const std::vector<double> &amplitudes) const
{
    Matrix h;
    sliceHamiltonianInto(amplitudes, h);
    return h;
}

void
DeviceModel::sliceHamiltonianInto(const std::vector<double> &amplitudes,
                                  Matrix &h) const
{
    PAQOC_ASSERT(amplitudes.size() == controls_.size(),
                 "amplitude count mismatch");
    h.resize(dim(), dim());
    const std::size_t n2 = dim() * dim();
    for (std::size_t k = 0; k < controls_.size(); ++k) {
        if (amplitudes[k] == 0.0)
            continue;
        // h += alpha_k * H_k via the axpy kernel: same multiply-then-
        // add rounding as the historical copy/scale/add sequence.
        kernels::axpy(Complex(amplitudes[k], 0.0),
                      controls_[k].data(), h.data(), n2);
    }
}

} // namespace paqoc
