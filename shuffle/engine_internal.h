// The exchange engine's part-count rule (shuffle/engine.cc).  Not part of
// the public API: exposed so tests/test_engine.cc can pin the rule.

#ifndef NETSHUFFLE_SHUFFLE_ENGINE_INTERNAL_H_
#define NETSHUFFLE_SHUFFLE_ENGINE_INTERNAL_H_

#include <algorithm>
#include <cstddef>

namespace netshuffle {
namespace engine_internal {

/// Upper bound on the engine's part count.  The move step hands over a
/// parts x parts table of batches and every arriving part scans it for its
/// base slot, an O(parts^2) pass, so the cap bounds that table and that
/// scan at any pool width.
constexpr size_t kMaxRoutingParts = 32;

/// The engine's part count over n >= 1 users on a pool `width` slots wide:
/// four contiguous parts per slot, clamped to n and kMaxRoutingParts.  At
/// stationarity a user holds reports in proportion to its degree, so on a
/// heavy-tailed graph one id range can carry most of a round's work; more
/// parts than slots let the pool spread it (DESIGN.md §4b).  Width 1 keeps
/// a single part, which passes its source slice through and needs no batch
/// columns.  Scheduling only: the holdings are bit-identical at any part
/// count.
inline size_t RoutingParts(size_t width, size_t n) {
  if (width <= 1) return 1;
  return std::min({4 * width, n, kMaxRoutingParts});
}

}  // namespace engine_internal
}  // namespace netshuffle

#endif  // NETSHUFFLE_SHUFFLE_ENGINE_INTERNAL_H_
