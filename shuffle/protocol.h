// Shared protocol types: report identifiers, reporting modes, and the
// curator-side shapes produced by finalization.
//
// Since the index-routing refactor (DESIGN.md §4d) the exchange routes
// compact 4-byte ReportIds; a report's immutable origin and payload bytes
// live in the columnar PayloadArena (shuffle/payload.h) and are read back
// only at finalize.

#ifndef NETSHUFFLE_SHUFFLE_PROTOCOL_H_
#define NETSHUFFLE_SHUFFLE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "util/parallel.h"

namespace netshuffle {

using Bytes = std::vector<uint8_t>;

/// Dense index of an injected report: the 4-byte handle the exchange rounds
/// actually route.  Also the row index into the PayloadArena that holds the
/// report's origin and payload bytes.
using ReportId = uint32_t;

/// The pool cutoff of the epoch-boundary passes over reports
/// (PayloadArena::InjectOnePerUser, Server::ReceiveAll).  A part must hold
/// at least this many reports to repay its dispatch and, in the injection,
/// its scan of every report, so smaller inputs run in one part on the
/// calling thread.  Measured with BM_SealInject and BM_ServerReceiveAll
/// (4-vCPU Xeon, widths 2 and 4): at 2e5 reports one part is 10-40% slower
/// than the three this cutoff gives, and at 1e5 the 2-4 parts of a 2^14
/// or 2^15 cutoff save at most 0.04 ms per pass, inside the run-to-run
/// spread, so 1e5-user epochs stay serial.
constexpr size_t kMinReportsPerScanPart = size_t{1} << 16;

/// The part count of such a pass over `reports` reports: one part per pool
/// thread, at least one part.
inline size_t ScanParts(size_t reports) {
  const size_t width = ThreadCount();
  const size_t parts = reports / kMinReportsPerScanPart;
  return parts < 1 ? 1 : (parts < width ? parts : width);
}

class PayloadArena;

/// How users submit to the curator after the exchange rounds:
///  - kAll: every user submits every report it holds (empty holders submit a
///    size-padded dummy the curator can discard).
///  - kSingle: every user submits exactly one ciphertext — one uniformly
///    chosen held report, or an indistinguishable dummy if it holds none;
///    surplus held reports are dropped.
enum class ReportingProtocol { kAll, kSingle };

/// A report as it lands at the curator.  The payload bytes are NOT copied
/// here: read them through ProtocolResult::payloads->payload(id).
struct FinalReport {
  /// Row into the exchange's PayloadArena.
  ReportId id = 0;
  /// The user whose randomized datum this is (== payloads->origin(id),
  /// denormalized because every consumer needs it).
  NodeId origin = 0;
  /// The user that submitted it after the walk.
  NodeId final_holder = 0;
};

struct ProtocolResult {
  std::vector<FinalReport> server_inbox;
  /// The immutable origin/payload columns the inbox ids index into; shared
  /// with the exchange state so one-shot helpers (RunProtocol) stay safe to
  /// return by value.
  std::shared_ptr<const PayloadArena> payloads;
  /// Users that submitted a dummy because they held nothing (both
  /// protocols; kSingle's surplus is dropped_reports, not dummies).
  size_t dummy_reports = 0;
  /// Genuine reports not submitted (kSingle surplus).
  size_t dropped_reports = 0;
  size_t rounds = 0;
};

}  // namespace netshuffle

#endif  // NETSHUFFLE_SHUFFLE_PROTOCOL_H_
