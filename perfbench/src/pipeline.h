// The untraced Session path.  In timed mode it produces the end-to-end
// metrics; in reference mode it runs a fixed, reader-free schedule whose
// per-epoch outputs the traced replay (replay.h) must reproduce bit for bit.

#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common.h"
#include "core/accountant.h"
#include "workloads.h"

namespace perfbench {

/// What one closed epoch delivered: the rounds it ran, the guarantee
/// certified at that round count, and the curator inbox digest.
struct EpochOutput {
  size_t rounds = 0;
  netshuffle::PrivacyParams guarantee;
  uint64_t digest = 0;
};

enum class Mode {
  /// spec.setups cold certifications, each followed by an equal slice of
  /// the run's serving seconds: every end-to-end metric.
  kTimed,
  /// One cold certification plus spec.trace_epochs serving epochs, no
  /// readers: the schedule the traced replay mirrors.
  kReference,
};

struct SessionRun {
  std::vector<double> setup_s;    // Graph::FromEdges + Session::Create
  std::vector<double> certify_s;  // setup + rounds + Guarantee + delivery
  std::vector<double> step_ms;    // Session::Step(1)
  std::vector<double> roll_ms;    // one epoch boundary
  std::vector<double> query_us;   // Session::Guarantee
  /// Per serving epoch: its n reports ingested, mixed and delivered to the
  /// curator, divided by the epoch's serving time.
  std::vector<double> epoch_rate;
  /// Totals over every serving epoch (serving time: the epochs' wall time
  /// less the benchmark's own work inside them).
  size_t reports_delivered = 0;
  double delivery_s = 0.0;
  size_t serving_epochs = 0;
  size_t cold_certifications = 0;
  /// Time spent inside library calls (setup, emits, steps, guarantees,
  /// boundaries): the untraced side of the tracing-overhead comparison.
  double session_s = 0.0;
  /// Per closed epoch, epoch 0 first (digests in reference mode only).
  std::vector<EpochOutput> outputs;
  /// Session::GuaranteeAt(target) on a quiet session (reference mode).
  std::vector<double> quiet_certify_us;
};

SessionRun RunSession(const WorkloadSpec& spec, const Inputs& in, Mode mode,
                      double seconds, Ledger* ledger);

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_
