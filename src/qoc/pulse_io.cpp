#include "qoc/pulse_io.h"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/error.h"
#include "common/json.h"

namespace paqoc {

std::string
pulseToCsv(const PulseSchedule &schedule, const DeviceModel &device)
{
    std::ostringstream oss;
    oss << "t";
    for (std::size_t k = 0; k < device.numControls(); ++k)
        oss << ',' << device.controlName(k);
    oss << '\n';
    char buf[32];
    for (int t = 0; t < schedule.numSlices(); ++t) {
        const auto &slice =
            schedule.amplitudes[static_cast<std::size_t>(t)];
        PAQOC_FATAL_IF(slice.size() != device.numControls(),
                       "schedule channel count does not match device");
        oss << t;
        for (double amp : slice) {
            std::snprintf(buf, sizeof buf, ",%.9g", amp);
            oss << buf;
        }
        oss << '\n';
    }
    return oss.str();
}

PulseSchedule
pulseFromCsv(const std::string &csv, const DeviceModel &device)
{
    std::istringstream in(csv);
    std::string line;
    PAQOC_FATAL_IF(!std::getline(in, line), "pulse csv: empty input");

    // Validate the header.
    {
        std::istringstream header(line);
        std::string cell;
        PAQOC_FATAL_IF(!std::getline(header, cell, ',') || cell != "t",
                       "pulse csv: header must start with 't'");
        for (std::size_t k = 0; k < device.numControls(); ++k) {
            PAQOC_FATAL_IF(!std::getline(header, cell, ','),
                           "pulse csv: missing channel column");
            PAQOC_FATAL_IF(cell != device.controlName(k),
                           "pulse csv: channel '", cell,
                           "' does not match device channel '",
                           device.controlName(k), "'");
        }
    }

    PulseSchedule schedule;
    int line_no = 1;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            continue;
        std::istringstream row(line);
        std::string cell;
        PAQOC_FATAL_IF(!std::getline(row, cell, ','), "pulse csv line ",
                       line_no, ": empty row");
        std::vector<double> slice;
        slice.reserve(device.numControls());
        while (std::getline(row, cell, ','))
            slice.push_back(std::stod(cell));
        PAQOC_FATAL_IF(slice.size() != device.numControls(),
                       "pulse csv line ", line_no, ": expected ",
                       device.numControls(), " channels, got ",
                       slice.size());
        schedule.amplitudes.push_back(std::move(slice));
    }
    return schedule;
}

Json
pulseDocument(const PulseSchedule &schedule, const DeviceModel &device,
              bool degraded)
{
    Json doc = Json::object();
    doc.set("format", Json("paqoc-pulse-v1"));
    doc.set("num_qubits", Json(static_cast<double>(device.numQubits())));
    doc.set("dt_slices",
            Json(static_cast<double>(schedule.numSlices())));
    doc.set("latency_dt", Json(schedule.latency()));
    doc.set("fidelity", Json(schedule.fidelity));
    // Emitted only for stitched fallback pulses: healthy documents
    // stay byte-identical to pre-degraded-mode builds.
    if (degraded)
        doc.set("degraded", Json(true));
    Json channels = Json::array();
    for (std::size_t k = 0; k < device.numControls(); ++k)
        channels.push(Json(device.controlName(k)));
    doc.set("channels", std::move(channels));
    Json rows = Json::array();
    for (int t = 0; t < schedule.numSlices(); ++t) {
        const auto &slice =
            schedule.amplitudes[static_cast<std::size_t>(t)];
        PAQOC_FATAL_IF(slice.size() != device.numControls(),
                       "schedule channel count does not match device");
        Json row = Json::array();
        for (double amp : slice)
            row.push(Json(amp));
        rows.push(std::move(row));
    }
    doc.set("amplitudes", std::move(rows));
    return doc;
}

std::string
pulseToJson(const PulseSchedule &schedule, const DeviceModel &device,
            bool degraded)
{
    return pulseDocument(schedule, device, degraded).dump();
}

PulseSchedule
pulseFromJson(const std::string &json, const DeviceModel &device)
{
    const Json doc = Json::parse(json);
    PAQOC_FATAL_IF(!doc.isObject(), "pulse json: expected an object");
    PAQOC_FATAL_IF(!doc.contains("format")
                       || doc.at("format").asString()
                              != "paqoc-pulse-v1",
                   "pulse json: missing or unsupported format tag");

    const Json &channels = doc.at("channels");
    PAQOC_FATAL_IF(channels.size() != device.numControls(),
                   "pulse json: expected ", device.numControls(),
                   " channels, got ", channels.size());
    for (std::size_t k = 0; k < device.numControls(); ++k)
        PAQOC_FATAL_IF(channels.at(k).asString()
                           != device.controlName(k),
                       "pulse json: channel '",
                       channels.at(k).asString(),
                       "' does not match device channel '",
                       device.controlName(k), "'");

    PulseSchedule schedule;
    schedule.fidelity = doc.at("fidelity").asNumber();
    const Json &rows = doc.at("amplitudes");
    PAQOC_FATAL_IF(!rows.isArray(),
                   "pulse json: 'amplitudes' must be an array");
    schedule.amplitudes.reserve(rows.size());
    for (std::size_t t = 0; t < rows.size(); ++t) {
        const Json &row = rows.at(t);
        PAQOC_FATAL_IF(row.size() != device.numControls(),
                       "pulse json slice ", t, ": expected ",
                       device.numControls(), " channels, got ",
                       row.size());
        std::vector<double> slice;
        slice.reserve(row.size());
        for (std::size_t k = 0; k < row.size(); ++k)
            slice.push_back(row.at(k).asNumber());
        schedule.amplitudes.push_back(std::move(slice));
    }
    PAQOC_FATAL_IF(doc.at("dt_slices").asInt()
                       != schedule.numSlices(),
                   "pulse json: dt_slices does not match the number of "
                   "amplitude rows");
    return schedule;
}

std::string
pulseToAscii(const PulseSchedule &schedule, const DeviceModel &device,
             int max_columns)
{
    PAQOC_FATAL_IF(max_columns < 8, "max_columns too small");
    const int slices = schedule.numSlices();
    if (slices == 0)
        return "(empty schedule)\n";
    const int stride = std::max(1, (slices + max_columns - 1)
                                       / max_columns);
    static const char levels[] = " .:-=+*#%@";

    std::ostringstream oss;
    for (std::size_t k = 0; k < device.numControls(); ++k) {
        oss << device.controlName(k);
        for (std::size_t pad = device.controlName(k).size(); pad < 6;
             ++pad)
            oss << ' ';
        oss << '|';
        const double bound = device.bound(k);
        for (int t = 0; t < slices; t += stride) {
            double amp = 0.0;
            int n = 0;
            for (int s = t; s < std::min(slices, t + stride); ++s) {
                amp += schedule
                           .amplitudes[static_cast<std::size_t>(s)][k];
                ++n;
            }
            amp /= std::max(n, 1);
            const double mag = std::min(std::abs(amp) / bound, 1.0);
            const int level = static_cast<int>(std::round(mag * 9.0));
            oss << levels[level];
        }
        oss << "|\n";
    }
    oss << "(" << slices << " dt, " << device.numControls()
        << " channels)\n";
    return oss.str();
}

} // namespace paqoc
