// Shared helpers for the end-to-end pipeline benchmark: clocks, order
// statistics, the failure ledger, resident-set readings and the JSON value
// formatting every record uses.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/accountant.h"
#include "shuffle/protocol.h"
#include "shuffle/server.h"
#include "util/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; NaN
/// for an empty one.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Mean of an unsorted sample after dropping `share` of it from each end
/// (rounded down); NaN for an empty one.
inline double TrimmedMean(std::vector<double> v, double share) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const size_t drop = static_cast<size_t>(share * static_cast<double>(v.size()));
  double sum = 0.0;
  for (size_t i = drop; i < v.size() - drop; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * drop);
}

/// A latency tail: the value at `percentile`, taken from `samples` samples.
struct Tail {
  double value = std::nan("");
  double percentile = 50.0;
  size_t samples = 0;
};

/// Samples a percentile needs so that at least ten lie beyond it.
inline size_t SamplesForTail(double percentile) {
  return static_cast<size_t>(std::ceil(10.0 / (1.0 - percentile / 100.0)));
}

inline Tail TailAt(const std::vector<double>& v, double percentile) {
  Tail t;
  t.percentile = percentile;
  t.samples = v.size();
  t.value = Quantile(v, percentile / 100.0);
  return t;
}

/// The highest percentile of a fixed ladder that still has at least ten
/// samples beyond it (p50 below 20 samples).
inline Tail HighestResolvedTail(const std::vector<double>& v) {
  static const double kLadder[] = {99.9, 99.0, 95.0, 90.0, 80.0, 75.0};
  double chosen = 50.0;
  for (double p : kLadder) {
    if (v.size() >= SamplesForTail(p)) {
      chosen = p;
      break;
    }
  }
  return TailAt(v, chosen);
}

/// Counts attempted and failed operations; safe from reader threads.  The
/// first failure message is kept for the run's stderr report.
class Ledger {
 public:
  void Attempt(size_t k = 1) { attempted_.fetch_add(k); }
  /// Records one attempted operation and whether it passed; returns `ok`.
  bool Check(bool ok, const std::string& what) {
    attempted_.fetch_add(1);
    if (!ok) Fail(what);
    return ok;
  }
  void Fail(const std::string& what) {
    if (failed_.fetch_add(1) == 0) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
  }
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
};

/// Certified-guarantee check: finite, 0 < eps <= eps0, and the delta spent
/// within the configured composition + concentration split.
inline bool GuaranteeValid(const netshuffle::PrivacyParams& p, double eps0,
                           double delta_split) {
  return std::isfinite(p.epsilon) && p.epsilon > 0.0 && p.epsilon <= eps0 &&
         p.delta >= 0.0 && p.delta <= delta_split;
}

/// Curator-side check of one closed epoch: every report arrived once, each
/// user's report exactly once (coverage 1.0), none misaddressed.
inline bool EpochDelivered(const netshuffle::Server::EpochStats& s,
                           size_t n) {
  return s.received == n && s.distinct_origins == n &&
         s.invalid_origins == 0 && s.coverage == 1.0;
}

/// Order-sensitive digest of a curator inbox: (report id, origin, final
/// holder, payload bytes) of every delivered report.  Two runs that hold
/// the same reports at the same users produce the same digest.
uint64_t InboxDigest(const netshuffle::ProtocolResult& inbox);

/// Machine-wide CPU time from /proc/stat, in clock ticks.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();

/// Share of CPU time the hypervisor stole between two readings (0 where
/// /proc/stat is unavailable): context for a run whose timings drift.
double StealFraction(const CpuTicks& before, const CpuTicks& after);

/// VmHWM of this process in MB (NaN where /proc is unavailable).
double PeakRssMb();

/// Resets the kernel's resident high-water mark to the current RSS, so a
/// later PeakRssMb() measures what ran after this call.  False where the
/// kernel refuses (/proc/self/clear_refs unavailable).
bool ResetPeakRss();

/// A double with all 17 significant digits ("null" for NaN/inf, which JSON
/// cannot carry).
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
