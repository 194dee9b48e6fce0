// Regression tests for the curator's coverage accounting
// (shuffle/server.h): coverage is tracked incrementally on ingest (O(1)
// queries), out-of-range origins are counted in invalid_origin_count()
// instead of silently vanishing, and batched ingestion is equivalent to
// per-report ingestion — also when ReceiveAll runs on the pool, at widths
// 1, 2, 4 and 33.

#include <vector>

#include "shuffle/server.h"
#include "tests/test_util.h"
#include "util/parallel.h"
#include "util/rng.h"

using namespace netshuffle;

namespace {

FinalReport Make(NodeId origin, NodeId holder) {
  return FinalReport{/*id=*/origin, origin, holder};
}

// `count` reports with origins drawn from [0, users + users / 50): some
// past the population, many repeated.
std::vector<FinalReport> Batch(size_t count, size_t users, uint64_t seed) {
  Rng rng(seed);
  std::vector<FinalReport> batch(count);
  for (size_t i = 0; i < count; ++i) {
    const NodeId origin =
        static_cast<NodeId>(rng.UniformInt(users + users / 50));
    batch[i] = FinalReport{static_cast<ReportId>(i), origin,
                           static_cast<NodeId>(i % users)};
  }
  return batch;
}

void CheckSame(const Server& batched, const Server& single) {
  CHECK(batched.num_received() == single.num_received());
  CHECK(batched.distinct_origins() == single.distinct_origins());
  CHECK(batched.invalid_origin_count() == single.invalid_origin_count());
  CHECK(batched.PayloadCoverage() == single.PayloadCoverage());
  for (size_t i = 0; i < single.num_received(); ++i) {
    CHECK(batched.inbox()[i].id == single.inbox()[i].id);
    CHECK(batched.inbox()[i].origin == single.inbox()[i].origin);
  }
  CHECK(batched.epochs_received().size() == single.epochs_received().size());
  for (size_t e = 0; e < single.epochs_received().size(); ++e) {
    const Server::EpochStats& a = batched.epochs_received()[e];
    const Server::EpochStats& b = single.epochs_received()[e];
    CHECK(a.received == b.received);
    CHECK(a.distinct_origins == b.distinct_origins);
    CHECK(a.invalid_origins == b.invalid_origins);
    CHECK(a.coverage == b.coverage);
  }
}

// Two batches in one epoch (origins repeat within and across them), a
// BeginEpoch, and one more batch: ReceiveAll against the Receive loop.
void CheckPooledReceive(size_t users, size_t first, size_t second) {
  const std::vector<FinalReport> b1 = Batch(first, users, 1);
  const std::vector<FinalReport> b2 = Batch(second, users, 2);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{33}}) {
    SetThreadCount(threads);
    Server batched(users), single(users);
    batched.ReceiveAll(b1);
    batched.ReceiveAll(b2);
    for (const FinalReport& fr : b1) single.Receive(fr);
    for (const FinalReport& fr : b2) single.Receive(fr);
    CheckSame(batched, single);
    CHECK(single.invalid_origin_count() > 0);
    CHECK(single.distinct_origins() < first + second);
    batched.BeginEpoch();
    single.BeginEpoch();
    batched.ReceiveAll(b2);
    for (const FinalReport& fr : b2) single.Receive(fr);
    CheckSame(batched, single);
  }
  SetThreadCount(0);
}

}  // namespace

int main() {
  // Incremental coverage: each new distinct origin moves the O(1) query.
  {
    Server server(4);
    CHECK(server.PayloadCoverage() == 0.0);
    server.Receive(Make(0, 1));
    CHECK_NEAR(server.PayloadCoverage(), 0.25, 1e-12);
    server.Receive(Make(0, 2));  // duplicate origin: no change
    CHECK_NEAR(server.PayloadCoverage(), 0.25, 1e-12);
    CHECK(server.distinct_origins() == 1);
    server.Receive(Make(1, 0));
    server.Receive(Make(2, 0));
    server.Receive(Make(3, 0));
    CHECK_NEAR(server.PayloadCoverage(), 1.0, 1e-12);
    CHECK(server.num_received() == 5);
    CHECK(server.invalid_origin_count() == 0);
  }

  // Regression: out-of-range origins used to be silently ignored by the
  // coverage scan; they are now surfaced while coverage stays correct.
  {
    Server server(3);
    server.Receive(Make(0, 0));
    server.Receive(Make(7, 0));    // origin >= expected_users
    server.Receive(Make(3, 0));    // boundary: first invalid id
    CHECK(server.invalid_origin_count() == 2);
    CHECK(server.distinct_origins() == 1);
    CHECK_NEAR(server.PayloadCoverage(), 1.0 / 3.0, 1e-12);
    CHECK(server.num_received() == 3);  // still stored in the inbox
  }

  // Batched ingestion == per-report ingestion, including across multiple
  // batches appended to a non-empty inbox.
  {
    const std::vector<FinalReport> batch1 = {Make(0, 1), Make(2, 1),
                                             Make(9, 1)};
    const std::vector<FinalReport> batch2 = {Make(2, 0), Make(4, 0)};
    Server batched(5), single(5);
    batched.ReceiveAll(batch1);
    batched.ReceiveAll(batch2);
    for (const FinalReport& fr : batch1) single.Receive(fr);
    for (const FinalReport& fr : batch2) single.Receive(fr);
    CHECK(batched.num_received() == single.num_received());
    CHECK(batched.distinct_origins() == single.distinct_origins());
    CHECK(batched.invalid_origin_count() == single.invalid_origin_count());
    CHECK(batched.PayloadCoverage() == single.PayloadCoverage());
    CHECK(batched.distinct_origins() == 3);
    CHECK(batched.invalid_origin_count() == 1);
    CHECK(batched.inbox().size() == 5);
  }

  // Pooled ReceiveAll: five scan parts' worth of reports then two, over a
  // population whose bitmap is smaller than either batch.
  CheckPooledReceive(200003, 5 * kMinReportsPerScanPart + 9,
                     2 * kMinReportsPerScanPart + 1);
  // A population whose bitmap outweighs the batch takes the serial loop.
  CheckPooledReceive(20000000, 2 * kMinReportsPerScanPart + 1,
                     2 * kMinReportsPerScanPart + 1);

  // Degenerate population: zero expected users reports zero coverage and
  // counts every origin invalid.
  {
    Server server(0);
    server.Receive(Make(0, 0));
    CHECK(server.PayloadCoverage() == 0.0);
    CHECK(server.invalid_origin_count() == 1);
  }
  return 0;
}
