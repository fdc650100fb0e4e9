#ifndef PAQOC_CIRCUIT_QASM_H_
#define PAQOC_CIRCUIT_QASM_H_

#include <string>

#include "circuit/circuit.h"

namespace paqoc {

/**
 * Serialize a circuit as OpenQASM 2.0. Custom (merged/APA) gates
 * cannot be expressed in QASM 2.0 and raise FatalError; export before
 * compilation or after lowering to primitives. Angles are written
 * exactly (`k*pi/b` or 17 significant digits), so fromQasm reads every
 * angle back bit for bit.
 */
std::string toQasm(const Circuit &circuit);

/**
 * Parse a subset of OpenQASM 2.0: one quantum register, the gates of
 * the project gate library (id/x/y/z/h/sx/s/sdg/t/tdg/rx/ry/rz/p/u1/
 * cx/cz/cp/cu1/swap/ccx), numeric angle expressions of the form
 * `[-]a*pi[/b]` or plain decimals, comments, and barrier (ignored).
 * Raises FatalError with a line number on anything else.
 */
Circuit fromQasm(const std::string &text);

} // namespace paqoc

#endif // PAQOC_CIRCUIT_QASM_H_
