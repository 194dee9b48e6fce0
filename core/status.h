// Typed error handling for the session API: a small Status (code + message),
// an Expected<T> for factory functions that can fail, and a fatal-error
// helper for contract violations that have no recovery path.
//
// The error taxonomy covers the ways a privacy pipeline can be mis-assembled
// (DESIGN.md "Session API": error taxonomy).  Configuration problems surface
// as Status values from Session::Create / Session::Validate instead of the
// seed behavior of flowing through to NaN / +inf results.

#ifndef NETSHUFFLE_CORE_STATUS_H_
#define NETSHUFFLE_CORE_STATUS_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

namespace netshuffle {

enum class StatusCode {
  kOk = 0,
  /// epsilon0 is non-finite or <= 0 (no LDP guarantee to amplify).
  kInvalidEpsilon,
  /// delta or delta2 outside (0, 1), or their sum >= 1.
  kInvalidDelta,
  /// The communication graph has zero users.
  kEmptyGraph,
  /// The graph is disconnected: reports can never mix across components.
  kDisconnectedGraph,
  /// The graph is bipartite: the walk has no unique stationary limit, so
  /// the mixing-time theory does not apply.
  kNonErgodicGraph,
  /// An explicit zero-round exchange was requested (the engine has no
  /// mixing-time default; see core/session.h SessionConfig::SetRounds).
  kZeroRounds,
  /// Fixed rounds below the mixing floor alpha^-1 log n while
  /// SessionConfig::RequireMixedRounds is set.
  kRoundsBelowMixingFloor,
  /// The certified spectral-gap bound lambda_upper reached 1 on a graph
  /// that passed the connectivity and bipartiteness checks: the estimate
  /// (graph/spectral.h) could not certify any gap within its iteration cap,
  /// so no mixing time or geometric term can be priced.
  kSpectralGapUncertified,
  /// A replacement graph is incompatible with the running session
  /// (different node count).
  kGraphMismatch,
  /// An edge list names an endpoint >= the declared node count; building the
  /// CSR from it would corrupt the offsets (out-of-bounds writes).
  kEdgeEndpointOutOfRange,
  /// A PayloadArena is incompatible with the session's graph: wrong report
  /// count (the protocol injects exactly one report per user) or an origin
  /// outside the user population.
  kPayloadMismatch,
  /// A storage-backend I/O operation failed: the backing directory cannot
  /// be created, a column file cannot be opened/grown, or an mmap target is
  /// missing/unreadable/shorter than its column requires
  /// (shuffle/backend.h).
  kIoError,
  /// Anything else (bad accountant parameters, ...).
  kInvalidArgument,
};

inline const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "kOk";
    case StatusCode::kInvalidEpsilon: return "kInvalidEpsilon";
    case StatusCode::kInvalidDelta: return "kInvalidDelta";
    case StatusCode::kEmptyGraph: return "kEmptyGraph";
    case StatusCode::kDisconnectedGraph: return "kDisconnectedGraph";
    case StatusCode::kNonErgodicGraph: return "kNonErgodicGraph";
    case StatusCode::kZeroRounds: return "kZeroRounds";
    case StatusCode::kRoundsBelowMixingFloor:
      return "kRoundsBelowMixingFloor";
    case StatusCode::kSpectralGapUncertified:
      return "kSpectralGapUncertified";
    case StatusCode::kGraphMismatch: return "kGraphMismatch";
    case StatusCode::kEdgeEndpointOutOfRange:
      return "kEdgeEndpointOutOfRange";
    case StatusCode::kPayloadMismatch: return "kPayloadMismatch";
    case StatusCode::kIoError: return "kIoError";
    case StatusCode::kInvalidArgument: return "kInvalidArgument";
  }
  return "kUnknown";
}

/// [[nodiscard]]: a dropped Status is a swallowed error — every producer
/// either succeeded silently or failed silently, and the caller cannot tell
/// which.  Call sites that genuinely want to discard must say so with a
/// justified cast (none exist today; tools/ns_lint.py keeps the attribute
/// itself from regressing).
class [[nodiscard]] Status {
 public:
  /// Default-constructed Status is OK.
  Status() = default;

  static Status Ok() { return Status(); }
  static Status Error(StatusCode code, std::string message) {
    Status s;
    s.code_ = code;
    s.message_ = std::move(message);
    return s;
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    if (ok()) return "OK";
    return std::string(StatusCodeName(code_)) + ": " + message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Aborts with a location-tagged message.  Reserved for contract violations
/// (zero-round exchange, accessing Expected::value() on an error) where
/// continuing would silently compute garbage — configuration errors go
/// through Status instead.
[[noreturn]] inline void FatalError(const char* file, int line,
                                    const std::string& what) {
  std::fprintf(stderr, "netshuffle fatal error at %s:%d: %s\n", file, line,
               what.c_str());
  std::abort();
}

#define NETSHUFFLE_FATAL(msg) ::netshuffle::FatalError(__FILE__, __LINE__, (msg))

/// Checked size_t -> uint32_t narrowing for the CSR offset columns
/// (shuffle/store.h, shuffle/payload.h): fatal instead of silently wrapping,
/// because a wrapped offset corrupts every slice after it.  `what` names the
/// quantity for the error message.
inline uint32_t CheckedNarrow32(size_t value, const char* what) {
  if (value > 0xffffffffULL) {
    NETSHUFFLE_FATAL(std::string(what) + " = " + std::to_string(value) +
                     " does not fit a uint32 offset column");
  }
  return static_cast<uint32_t>(value);
}

/// Result-or-error for factories (Session::Create).  Holds either a T or a
/// non-OK Status; accessing the wrong arm is a fatal error, so callers either
/// check ok() or accept the documented abort.  [[nodiscard]] for the same
/// reason as Status: discarding one throws away both the result and the
/// error.
template <typename T>
class [[nodiscard]] Expected {
 public:
  Expected(T value) : value_(std::move(value)) {}  // NOLINT: implicit by design
  Expected(Status status) : status_(std::move(status)) {  // NOLINT
    if (status_.ok()) {
      NETSHUFFLE_FATAL("Expected constructed from an OK Status without a value");
    }
  }

  bool ok() const { return value_.has_value(); }

  const Status& status() const { return status_; }

  T& value() & {
    Require();
    return *value_;
  }
  const T& value() const& {
    Require();
    return *value_;
  }
  /// Moves the value out: `Session s = Session::Create(cfg).value();` works
  /// because Create returns a prvalue.
  T&& value() && {
    Require();
    return *std::move(value_);
  }

 private:
  void Require() const {
    if (!ok()) {
      NETSHUFFLE_FATAL("Expected::value() on error: " + status_.ToString());
    }
  }

  std::optional<T> value_;
  Status status_;  // OK iff value_ holds
};

}  // namespace netshuffle

#endif  // NETSHUFFLE_CORE_STATUS_H_
