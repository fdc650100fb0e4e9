#ifndef PAQOC_SERVICE_PROTOCOL_H_
#define PAQOC_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "common/json.h"
#include "linalg/matrix.h"

namespace paqoc {

/**
 * Wire protocol of the pulse-compilation service (DESIGN.md §6): every
 * message is one *frame* -- a 4-byte big-endian payload length followed
 * by that many bytes of UTF-8 JSON. Requests are objects with an "op"
 * member ("compile" | "generate" | "stats" | "ping" | "shutdown");
 * responses carry {"ok": bool, "payload": ..., "stats": ...} or
 * {"ok": false, "error": "..."}.
 *
 * Multi-tenancy (DESIGN.md §12): a request may carry a "tenant"
 * string identifying who it is billed to; absent (or empty) means the
 * "anonymous" tenant. Tenant identity drives weighted fair-share
 * admission and the replenishing per-tenant budgets -- a tenant whose
 * budget is spent receives budgetExhaustedResponse until the sliding
 * window refunds enough spend.
 */
namespace protocol {

/** Upper bound on one frame; larger frames are a protocol error. */
constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/**
 * Read one frame from `fd` into `out`. Returns false on clean EOF
 * before any byte of a frame; raises FatalError on a malformed length,
 * a mid-frame EOF, or an I/O error.
 */
bool readFrame(int fd, std::string &out);

/** Write one frame to `fd`; raises FatalError on I/O failure. */
void writeFrame(int fd, const std::string &payload);

/** JSON <-> Matrix: [[re,im], ...] in row-major order. */
Json matrixToJson(const Matrix &m);
Matrix matrixFromJson(const Json &j);

/** Standard failure response. */
Json errorResponse(const std::string &message);
/** Failure response the client should retry later (backpressure). */
Json overloadedResponse();
/**
 * Structured budget-violation response: {"ok": false, "error": ...,
 * "quota_exceeded": true, "limit": "max_iters" |
 * "max_resident_pulses"}. Not retryable -- the same request would
 * exhaust the same budget again. (A request's `max_wall_ms` is a
 * deadline: passing it answers cancelledResponse.)
 */
Json quotaExceededResponse(const std::string &limit,
                           const std::string &message);

/**
 * Structured tenant-budget response: {"ok": false, "error": ...,
 * "budget_exhausted": true, "tenant": ..., "retry_after_ms": N}.
 * Unlike quota_exceeded this IS retryable -- the sliding window
 * refunds spend, so the same request succeeds once `retry_after_ms`
 * milliseconds have replenished the tenant's bucket. The `retry`
 * member is deliberately absent: clients must not hot-loop on it the
 * way they do on backpressure.
 */
Json budgetExhaustedResponse(const std::string &tenant,
                             double retry_after_ms,
                             const std::string &message);

/**
 * Structured overload-shed response (DESIGN.md §15): {"ok": false,
 * "error": ..., "overload_shed": true, "tenant": ...,
 * "retry_after_ms": N}. Emitted by the adaptive overload ladder when
 * even degraded service cannot be offered. Like budget_exhausted it
 * carries no `retry` member: clients must back off for
 * `retry_after_ms`, not hot-loop.
 */
Json overloadShedResponse(const std::string &tenant,
                          double retry_after_ms,
                          const std::string &message);

/**
 * Structured cancellation response: {"ok": false, "error": ...,
 * "cancelled": true, "reason": "deadline_exceeded" |
 * "client_disconnected" | "explicit_cancel" | "overload_shed" |
 * "shutdown"}. Not retryable as-is -- the caller decided (or the
 * deadline decided) that the work should stop. A deadline answers
 * the same way whether it passed in the queue or mid-run.
 */
Json cancelledResponse(const std::string &reason,
                       const std::string &message);

} // namespace protocol

} // namespace paqoc

#endif // PAQOC_SERVICE_PROTOCOL_H_
