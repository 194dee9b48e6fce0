// The traced run: the reference schedule of pipeline.h replayed through the
// library's public per-layer calls, in the order Session makes them and
// with the same per-epoch seeds, with a span around each call.  The library
// itself carries no tracing; every span is recorded here.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common.h"
#include "pipeline.h"
#include "workloads.h"

namespace perfbench {

struct Span {
  const char* name;
  double start_s;
  double end_s;
  /// Index of the enclosing span, -1 at top level.
  int parent;
};

/// In-memory span recorder for one single-threaded replay.
class Tracer {
 public:
  explicit Tracer(std::string run_id);

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    size_t index_;
  };

  size_t size() const { return spans_.size(); }
  /// Durations (seconds) of every span named `name`, in start order.
  std::vector<double> Durations(const char* name) const;
  /// Summed duration of the spans with no child span: the time inside
  /// library calls proper.
  double LeafSeconds() const;
  /// Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  double Now() const { return Seconds(origin_, Clock::now()); }

  std::string run_id_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

struct ReplayRun {
  /// Per closed epoch, comparable with SessionRun::outputs.
  std::vector<EpochOutput> outputs;
  /// Time inside the replayed call groups (the traced side of the
  /// tracing-overhead comparison with SessionRun::session_s).
  double replay_s = 0.0;
  std::vector<double> spectral_iterations;
  size_t rounds = 0;
  size_t reports_emitted = 0;
  /// The span-covered re-emission of epoch 0's input reports, which the
  /// Session run had in hand and so did not time.
  double input_emit_s = 0.0;
  size_t workspace_bytes = 0;
  /// Double-buffered routing state: the holdings store plus the engine
  /// workspace.
  size_t routing_bytes = 0;
  /// Epoch 0's rounds, reused by the exchange speedup pass.
  size_t epoch0_rounds = 0;
};

ReplayRun RunReplay(const WorkloadSpec& spec, const Inputs& in,
                    Tracer* tracer, Ledger* ledger);

/// Wall time one span open/close pair costs, measured on a throwaway tracer:
/// the instrumentation's own share of a traced run.
double SpanCostSeconds();

/// Spectral estimate time at 1 thread over time at `width` threads, over
/// a fixed iteration count.
double SpectralSpeedup(const Inputs& in, size_t width);
/// ResumeExchange over `rounds` rounds: time at 1 thread over time at
/// `width` threads.
double ExchangeSpeedup(const Inputs& in, size_t rounds, size_t width);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
