#include "circuit/qasm.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

#include "common/error.h"

namespace paqoc {

namespace {

constexpr double kPi = 3.14159265358979323846;

const char *
qasmName(Op op)
{
    switch (op) {
      case Op::P:
        return "u1"; // most widely understood spelling
      case Op::CP:
        return "cu1";
      default:
        return opName(op);
    }
}

/** Parse "pi", "-pi/2", "3*pi/4", "0.25", "-1.5e-1". */
double
parseAngle(const std::string &text, int line_no)
{
    std::string s;
    for (char c : text)
        if (!std::isspace(static_cast<unsigned char>(c)))
            s += c;
    PAQOC_FATAL_IF(s.empty(), "qasm line ", line_no, ": empty angle");

    double sign = 1.0;
    std::size_t pos = 0;
    if (s[0] == '-') {
        sign = -1.0;
        pos = 1;
    } else if (s[0] == '+') {
        pos = 1;
    }
    const std::size_t pi_at = s.find("pi", pos);
    if (pi_at == std::string::npos) {
        try {
            return sign * std::stod(s.substr(pos));
        } catch (const std::exception &) {
            throw FatalError("qasm line " + std::to_string(line_no)
                             + ": bad angle '" + text + "'");
        }
    }
    double value = kPi;
    if (pi_at > pos) {
        // "a*pi" prefix.
        const std::string prefix = s.substr(pos, pi_at - pos);
        PAQOC_FATAL_IF(prefix.empty() || prefix.back() != '*',
                       "qasm line ", line_no, ": bad angle '", text,
                       "'");
        value *= std::stod(prefix.substr(0, prefix.size() - 1));
    }
    std::size_t rest = pi_at + 2;
    if (rest < s.size()) {
        PAQOC_FATAL_IF(s[rest] != '/', "qasm line ", line_no,
                       ": bad angle '", text, "'");
        value /= std::stod(s.substr(rest + 1));
    }
    return sign * value;
}

/**
 * An angle spelled so that parseAngle reads back the identical double:
 * `[-][k*]pi[/b]` when such a fraction exists (small denominators
 * first, so the text stays readable), else 17 significant digits.
 */
std::string
formatAngle(double angle)
{
    const double mag = std::fabs(angle);
    for (long b = 1; mag > 0.0 && b <= (1L << 20);
         b = b < 64 ? b + 1 : b * 2) {
        const double multiple = mag * static_cast<double>(b) / kPi;
        // Beyond 2^53 (or at inf) no k is exact; it only grows with b.
        if (!(multiple <= 0x1p53))
            break;
        // A cheap filter; reading the text back is the exact test.
        const double k = std::round(multiple);
        if (k < 1.0 || std::fabs(multiple - k) > 1e-6)
            continue;
        std::string text = angle < 0.0 ? "-" : "";
        if (k != 1.0)
            text += std::to_string(static_cast<long>(k)) + "*";
        text += "pi";
        if (b != 1)
            text += "/" + std::to_string(b);
        if (parseAngle(text, 0) == angle)
            return text;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", angle);
    return buf;
}

} // namespace

std::string
toQasm(const Circuit &circuit)
{
    std::ostringstream oss;
    oss << "OPENQASM 2.0;\n"
        << "include \"qelib1.inc\";\n"
        << "qreg q[" << circuit.numQubits() << "];\n";
    for (const Gate &g : circuit.gates()) {
        PAQOC_FATAL_IF(g.isCustom(),
                       "custom gate '", g.label(),
                       "' has no QASM 2.0 spelling");
        oss << qasmName(g.op());
        if (opHasAngle(g.op()))
            oss << '(' << formatAngle(g.angle()) << ')';
        for (std::size_t i = 0; i < g.qubits().size(); ++i)
            oss << (i == 0 ? " " : ",") << "q[" << g.qubits()[i] << "]";
        oss << ";\n";
    }
    return oss.str();
}

Circuit
fromQasm(const std::string &text)
{
    static const std::map<std::string, Op> ops = {
        {"id", Op::I},    {"x", Op::X},     {"y", Op::Y},
        {"z", Op::Z},     {"h", Op::H},     {"sx", Op::SX},
        {"s", Op::S},     {"sdg", Op::Sdg}, {"t", Op::T},
        {"tdg", Op::Tdg}, {"rx", Op::RX},   {"ry", Op::RY},
        {"rz", Op::RZ},   {"p", Op::P},     {"u1", Op::P},
        {"cx", Op::CX},   {"cz", Op::CZ},   {"cp", Op::CP},
        {"cu1", Op::CP},  {"swap", Op::SWAP}, {"ccx", Op::CCX},
    };

    std::istringstream in(text);
    std::string line;
    int line_no = 0;
    int num_qubits = -1;
    std::string qreg_name;
    std::vector<Gate> gates;

    while (std::getline(in, line)) {
        ++line_no;
        const std::size_t comment = line.find("//");
        if (comment != std::string::npos)
            line = line.substr(0, comment);
        // Strip whitespace except one separator between the mnemonic
        // and its operands (so "h q[0]" does not collapse to "hq[0]").
        std::string stripped;
        bool separator_pending = false;
        for (char c : line) {
            if (std::isspace(static_cast<unsigned char>(c))) {
                if (!stripped.empty())
                    separator_pending = true;
                continue;
            }
            if (separator_pending) {
                separator_pending = false;
                const char last = stripped.back();
                if (std::isalnum(static_cast<unsigned char>(last))
                    && (std::isalpha(static_cast<unsigned char>(c))))
                    stripped += ' ';
            }
            stripped += c;
        }
        if (stripped.empty())
            continue;
        PAQOC_FATAL_IF(stripped.back() != ';', "qasm line ", line_no,
                       ": missing ';'");
        stripped.pop_back();

        if (stripped.rfind("OPENQASM", 0) == 0
            || stripped.rfind("include", 0) == 0
            || stripped.rfind("barrier", 0) == 0)
            continue;
        if (stripped.rfind("qreg", 0) == 0) {
            const std::size_t lb = stripped.find('[');
            const std::size_t rb = stripped.find(']');
            PAQOC_FATAL_IF(lb == std::string::npos
                               || rb == std::string::npos || rb < lb,
                           "qasm line ", line_no, ": bad qreg");
            PAQOC_FATAL_IF(num_qubits >= 0, "qasm line ", line_no,
                           ": only one qreg supported");
            qreg_name = stripped.substr(4, lb - 4);
            while (!qreg_name.empty() && qreg_name.front() == ' ')
                qreg_name.erase(qreg_name.begin());
            num_qubits = std::stoi(stripped.substr(lb + 1, rb - lb - 1));
            continue;
        }
        if (stripped.rfind("creg", 0) == 0
            || stripped.rfind("measure", 0) == 0)
            continue;

        PAQOC_FATAL_IF(num_qubits < 0, "qasm line ", line_no,
                       ": gate before qreg");

        // Gate name, optional (angle), operand list.
        std::size_t pos = 0;
        while (pos < stripped.size()
               && (std::isalnum(static_cast<unsigned char>(
                       stripped[pos]))))
            ++pos;
        const std::string name = stripped.substr(0, pos);
        const auto op_it = ops.find(name);
        PAQOC_FATAL_IF(op_it == ops.end(), "qasm line ", line_no,
                       ": unknown gate '", name, "'");

        double angle = 0.0;
        if (pos < stripped.size() && stripped[pos] == '(') {
            const std::size_t close = stripped.find(')', pos);
            PAQOC_FATAL_IF(close == std::string::npos, "qasm line ",
                           line_no, ": missing ')'");
            angle = parseAngle(stripped.substr(pos + 1, close - pos - 1),
                               line_no);
            pos = close + 1;
        }

        std::vector<int> qubits;
        while (pos < stripped.size()) {
            if (stripped[pos] == ',' || stripped[pos] == ' ') {
                ++pos;
                continue;
            }
            const std::size_t lb = stripped.find('[', pos);
            const std::size_t rb = stripped.find(']', pos);
            PAQOC_FATAL_IF(lb == std::string::npos
                               || rb == std::string::npos,
                           "qasm line ", line_no, ": bad operand");
            const std::string reg = stripped.substr(pos, lb - pos);
            PAQOC_FATAL_IF(reg != qreg_name, "qasm line ", line_no,
                           ": unknown register '", reg, "'");
            qubits.push_back(
                std::stoi(stripped.substr(lb + 1, rb - lb - 1)));
            pos = rb + 1;
        }
        gates.emplace_back(op_it->second, std::move(qubits), angle);
    }
    PAQOC_FATAL_IF(num_qubits <= 0, "qasm: no qreg found");
    Circuit circuit(num_qubits);
    for (Gate &g : gates)
        circuit.add(std::move(g));
    return circuit;
}

} // namespace paqoc
