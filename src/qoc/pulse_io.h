#ifndef PAQOC_QOC_PULSE_IO_H_
#define PAQOC_QOC_PULSE_IO_H_

#include <string>

#include "common/json.h"
#include "qoc/device.h"
#include "qoc/pulse.h"

namespace paqoc {

/**
 * Render a pulse schedule as CSV: one row per dt slice, one column per
 * control channel (named after the device's channels, e.g. x0, y0,
 * xy01), preceded by a "t" column. This is the hand-off format for
 * driving external waveform tooling.
 */
std::string pulseToCsv(const PulseSchedule &schedule,
                       const DeviceModel &device);

/**
 * Parse a pulse CSV produced by pulseToCsv (the header row is
 * validated against the device's channel names). Fidelity metadata is
 * not stored in the CSV; the returned schedule has fidelity 0.
 */
PulseSchedule pulseFromCsv(const std::string &csv,
                           const DeviceModel &device);

/**
 * A pulse schedule as a self-describing JSON document:
 *
 *   {"format": "paqoc-pulse-v1", "num_qubits": n, "dt_slices": N,
 *    "latency_dt": N, "fidelity": f, "channels": ["x0", ...],
 *    "amplitudes": [[a_x0, ...], ...]}   // one inner array per slice
 *
 * Unlike the CSV hand-off format this carries the fidelity/latency
 * metadata, so a schedule survives a round trip losslessly (doubles
 * are serialized with full precision). This is the pulse payload of
 * the `paqocd` wire protocol. When `degraded` is set (a stitched
 * best-effort pulse, DESIGN.md §9) the document additionally carries
 * "degraded": true; healthy documents are unchanged byte for byte.
 * Payloads embed the document as built; pulseToJson is its dump().
 */
Json pulseDocument(const PulseSchedule &schedule, const DeviceModel &device,
                   bool degraded = false);

/** pulseDocument(...).dump(). */
std::string pulseToJson(const PulseSchedule &schedule,
                        const DeviceModel &device,
                        bool degraded = false);

/**
 * Parse a pulse JSON produced by pulseToJson. The format tag, channel
 * names, and slice shape are validated against the device; raises
 * FatalError on any mismatch.
 */
PulseSchedule pulseFromJson(const std::string &json,
                            const DeviceModel &device);

/**
 * Compact ASCII rendering of a schedule (one line per control, time
 * running left to right, amplitude bucketed into -#=. levels). For
 * logs and quick inspection.
 */
std::string pulseToAscii(const PulseSchedule &schedule,
                         const DeviceModel &device, int max_columns = 72);

} // namespace paqoc

#endif // PAQOC_QOC_PULSE_IO_H_
