#include "graph/spectral.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <limits>
#include <vector>

#include "util/parallel.h"
#include "util/rng.h"

// Lanczos on S' = S - phi phi^T, phi = sqrt(deg) / ||sqrt(deg)||: the
// walk operator with its trivial eigenvalue 1 moved to 0.  With q_1 the
// normalized start, the three-term recurrence
//
//   beta_k q_{k+1} = S' q_k - alpha_k q_k - beta_{k-1} q_{k-1}
//
// makes q_{k+1} = p_k(S') q_1 for the normalized Lanczos polynomial
// p_k = det(x - T_k) / (beta_1 ... beta_k), whose roots are the Ritz values
// (the eigenvalues of the tridiagonal T_k).  Since ||q_{k+1}|| = 1, every
// eigenvalue lambda whose eigenspace holds a share c of q_1 has
// |c p_k(lambda)| <= 1, and |p_k| grows monotonically outside the Ritz
// interval.  So if c >= c0, lambda cannot lie beyond the point mu where
// |p_k(mu)| = 1 / c0.  The identity needs only the recurrence, not the
// orthogonality of the q's, so it survives the loss of orthogonality that
// finite-precision Lanczos suffers once a Ritz value converges.  DESIGN.md
// §2 has the start-vector probability and the rounding margin.

namespace netshuffle {
namespace {

std::atomic<uint64_t> g_estimate_count{0};

// Rows per reduction block.  Fixed, so the per-block partial sums — added
// in block order — do not depend on the thread count.
constexpr size_t kBlock = 4096;

constexpr double kPi = 3.14159265358979323846;

// Runs body(block, begin, end) over the fixed blocks of [0, n) on the pool.
template <typename Body>
void ForBlocks(size_t n, const Body& body) {
  const size_t blocks = (n + kBlock - 1) / kBlock;
  ParallelFor(blocks, 1, [&](size_t first, size_t last) {
    for (size_t b = first; b < last; ++b) {
      body(b, b * kBlock, std::min(n, (b + 1) * kBlock));
    }
  });
}

template <size_t K>
std::array<double, K> SumInBlockOrder(
    const std::vector<std::array<double, K>>& partial) {
  std::array<double, K> total{};
  for (const std::array<double, K>& p : partial) {
    for (size_t i = 0; i < K; ++i) total[i] += p[i];
  }
  return total;
}

// The symmetric tridiagonal T_k: diagonal a[0..k), off-diagonal b[0..k-1).
struct Tridiagonal {
  const std::vector<double>& a;
  const std::vector<double>& b;
  size_t k;

  // Pivots of the LDL^T factorization of (x - T_k), in order.  Their signs
  // count the eigenvalues below x (Sturm), and their product is
  // det(x - T_k).
  template <typename Visit>
  void Pivots(double x, const Visit& visit) const {
    double d = 1.0;
    for (size_t j = 0; j < k; ++j) {
      d = (x - a[j]) - (j == 0 ? 0.0 : b[j - 1] * b[j - 1] / d);
      if (d == 0.0) d = std::numeric_limits<double>::min();
      visit(d);
    }
  }

  size_t CountBelow(double x) const {
    size_t count = 0;
    Pivots(x, [&](double d) { count += d > 0.0 ? 1 : 0; });
    return count;
  }

  // log det(x - T_k), or -inf unless x lies above every Ritz value.
  double LogDet(double x) const {
    constexpr double kRescale = 1e150;
    double product = 1.0;
    double log_sum = 0.0;
    bool above = true;
    Pivots(x, [&](double d) {
      above = above && d > 0.0;
      product *= d;
      if (product > kRescale || product < 1.0 / kRescale) {
        log_sum += std::log(product);
        product = 1.0;
      }
    });
    if (!above) return -std::numeric_limits<double>::infinity();
    return log_sum + std::log(product);
  }

  // An upper bound on the largest Ritz value, by bisection on the Sturm
  // count from a Gershgorin bracket.
  double TopRitz() const {
    double lo = a[0], hi = a[0];
    for (size_t j = 0; j < k; ++j) {
      const double radius = (j > 0 ? std::fabs(b[j - 1]) : 0.0) +
                            (j + 1 < k ? std::fabs(b[j]) : 0.0);
      lo = std::min(lo, a[j] - radius);
      hi = std::max(hi, a[j] + radius);
    }
    // The top Ritz value lies in (lo, hi]: every eigenvalue is below hi.
    while (true) {
      const double mid = 0.5 * (lo + hi);
      if (!(mid > lo && mid < hi)) return hi;
      (CountBelow(mid) == k ? hi : lo) = mid;
    }
  }

  // Whether mu lies above every Ritz value with log|p_k(mu)| =
  // log det(mu - T_k) - log_beta_product >= log_target: then no eigenvalue
  // above mu holds a start share of c0 or more.
  bool Excludes(double mu, double log_beta_product, double log_target) const {
    return LogDet(mu) - log_beta_product >= log_target;
  }

  // The least mu in [top, 1] that Excludes, rounded up; 1 when even mu = 1
  // does not.  top must bound the Ritz values from above.
  double EdgeBound(double top, double log_beta_product,
                   double log_target) const {
    if (top >= 1.0 || !Excludes(1.0, log_beta_product, log_target)) {
      return 1.0;
    }
    double lo = top, hi = 1.0;
    while (true) {
      const double mid = 0.5 * (lo + hi);
      if (!(mid > lo && mid < hi)) return hi;
      (Excludes(mid, log_beta_product, log_target) ? hi : lo) = mid;
    }
  }
};

// Steps between tests of the stopping rule.  A test costs about a hundred
// O(k) bisection probes, a Lanczos step O(n + m) = sweep_work, so tests
// thin out once k grows large against the graph and stay a fraction of
// the sweeps (large graphs test every step); on graphs so small that no
// stride keeps that fraction, tests still come every quarter of k.  The
// stride depends only on k and the graph, so the stopping step is still
// deterministic.
size_t CheckStride(size_t k, size_t sweep_work) {
  return 1 + std::min(k * 1024 / sweep_work, k / 4);
}

}  // namespace

SpectralGapEstimate EstimateSpectralGap(const Graph& g, size_t max_iterations,
                                        double tolerance) {
  g_estimate_count.fetch_add(1, std::memory_order_relaxed);
  SpectralGapEstimate out;
  const size_t n = g.num_nodes();
  if (n < 2 || g.num_edges() == 0) return out;

  // phi_i = deg_i * isd_i / sqrt(2m) = sqrt(deg_i) / ||sqrt(deg)||.
  std::vector<double> isd(n, 0.0);
  for (NodeId u = 0; u < n; ++u) {
    const double d = static_cast<double>(g.degree(u));
    if (d > 0.0) isd[u] = 1.0 / std::sqrt(d);
  }
  const double inv_norm =
      1.0 / std::sqrt(2.0 * static_cast<double>(g.num_edges()));
  const auto phi = [&](size_t i) {
    return static_cast<double>(g.degree(static_cast<NodeId>(i))) * isd[i] *
           inv_norm;
  };

  // A start share below c0 along the top or the bottom eigenspace happens
  // with probability at most kSpectralFailureProbability (a union over the
  // two ends of P(|c| < c0) <= c0 sqrt(2 (N-1) / pi) for one coordinate of
  // a uniform unit vector in the N = n-1 dimensional complement of phi).
  const double dims = std::max(2.0, static_cast<double>(n - 1));
  const double c0 =
      std::min(1.0, 0.5 * kSpectralFailureProbability *
                        std::sqrt(kPi / (2.0 * (dims - 1.0))));
  const double log_target = -std::log(c0);
  // MixingTime's numerator, for the rounds rule's goal.
  const double log_n = std::log(static_cast<double>(std::max<size_t>(n, 2)));
  // Rounding allowance per Lanczos step: a matvec row sums at most
  // max_degree terms of the norm-1 operator, and the axpys, deflation and
  // normalization add a few roundings more (DESIGN.md §2).
  const double step_rounding =
      (static_cast<double>(g.max_degree()) + 32.0) *
      std::numeric_limits<double>::epsilon();

  // cur: w_k (unnormalized) going into a step, q_k after its sweep.  prev:
  // q_{k-1}, overwritten with w_{k+1}.  z = D^{-1/2} w_k, pre-scaled so the
  // sweep gathers one array per edge.  y = S q_k.
  std::vector<double> cur(n, 0.0), prev(n, 0.0), y(n), z(n);
  {
    Rng rng(0x5eed5eedULL + n);  // seeded from the graph, never the caller
    for (size_t i = 0; i < n; i += 2) {
      double u1 = rng.UniformDouble();
      while (u1 <= 0.0) u1 = rng.UniformDouble();
      const double radius = std::sqrt(-2.0 * std::log(u1));
      const double angle = 2.0 * kPi * rng.UniformDouble();
      y[i] = radius * std::cos(angle);
      if (i + 1 < n) y[i + 1] = radius * std::sin(angle);
    }
  }

  const size_t blocks = (n + kBlock - 1) / kBlock;
  const size_t sweep_work = n + 2 * g.num_edges();
  std::vector<std::array<double, 3>> sweep_partial(blocks);
  std::vector<std::array<double, 1>> sum_partial(blocks);

  // prev <- y - gamma phi - alpha cur - beta prev (deflation and both
  // recurrence terms in one pass), z <- D^{-1/2} prev; returns ||prev||.
  const auto residual = [&](double gamma, double alpha, double beta) {
    ForBlocks(n, [&](size_t b, size_t begin, size_t end) {
      double sq = 0.0;
      for (size_t i = begin; i < end; ++i) {
        const double w =
            y[i] - gamma * phi(i) - alpha * cur[i] - beta * prev[i];
        prev[i] = w;
        z[i] = isd[i] * w;
        sq += w * w;
      }
      sum_partial[b][0] = sq;
    });
    return std::sqrt(SumInBlockOrder(sum_partial)[0]);
  };

  // The Gaussian start, deflated: w_1 = y - (y . phi) phi.
  double gamma = 0.0;
  {
    ForBlocks(n, [&](size_t b, size_t begin, size_t end) {
      double s = 0.0;
      for (size_t i = begin; i < end; ++i) s += y[i] * phi(i);
      sum_partial[b][0] = s;
    });
    gamma = SumInBlockOrder(sum_partial)[0];
  }
  double beta = residual(gamma, 0.0, 0.0);  // ||w_1|| normalizes q_1
  cur.swap(prev);                           // cur = w_1, prev = q_0 = 0

  std::vector<double> alpha_k, neg_alpha_k, beta_k;
  double log_beta_product = 0.0;
  size_t last_check = 0;
  for (size_t k = 1; k <= max_iterations; ++k) {
    // Sweep: q_k = w_k / beta_{k-1} in place, y = S q_k, and the three dot
    // products the deflation and alpha_k need.
    const double inv_beta = 1.0 / beta;
    ForBlocks(n, [&](size_t b, size_t begin, size_t end) {
      double y_phi = 0.0, y_q = 0.0, phi_q = 0.0;
      for (size_t v = begin; v < end; ++v) {
        const NodeId node = static_cast<NodeId>(v);
        double acc = 0.0;
        for (const NodeId* u = g.neighbors_begin(node);
             u != g.neighbors_end(node); ++u) {
          acc += z[*u];
        }
        const double yv = acc * isd[v] * inv_beta;
        const double qv = cur[v] * inv_beta;
        const double phiv = phi(v);
        y[v] = yv;
        cur[v] = qv;
        y_phi += yv * phiv;
        y_q += yv * qv;
        phi_q += phiv * qv;
      }
      sweep_partial[b] = {y_phi, y_q, phi_q};
    });
    const std::array<double, 3> dots = SumInBlockOrder(sweep_partial);
    gamma = dots[0];
    // (S' q_k) . q_k with S' q_k = y - gamma phi.
    const double alpha = dots[1] - gamma * dots[2];
    beta = residual(gamma, alpha, beta);
    cur.swap(prev);

    alpha_k.push_back(alpha);
    neg_alpha_k.push_back(-alpha);
    beta_k.push_back(beta);
    out.iterations = k;
    const double margin = static_cast<double>(k) * step_rounding;
    const bool breakdown = beta <= margin;
    if (!breakdown) log_beta_product += std::log(beta);
    if (!breakdown && k < max_iterations &&
        k - last_check < CheckStride(k, sweep_work)) {
      continue;
    }
    last_check = k;

    // Both spectrum ends: the bottom end of T_k is the top end of -T_k,
    // whose Lanczos polynomial is p_k(-x) up to sign.
    const Tridiagonal top{alpha_k, beta_k, k};
    const Tridiagonal bottom{neg_alpha_k, beta_k, k};
    const double theta_max = top.TopRitz();
    const double neg_theta_min = bottom.TopRitz();
    out.lambda = std::min(
        1.0, std::max(std::fabs(theta_max), std::fabs(neg_theta_min)));
    if (breakdown) {
      // The Krylov space is invariant, so the Ritz values are the
      // eigenvalues the start touches — with probability 1, all of them.
      out.lambda_upper = std::min(1.0, out.lambda + margin);
      out.converged = true;
      break;
    }
    // Two stopping rules; the first to hold ends the estimate.  Tolerance:
    // lambda_upper - lambda <= tolerance (1 - lambda_upper).  Rounds:
    // lambda_upper prices the same MixingTime as the Ritz value, so no
    // later step can remove a round — the Ritz value never decreases with
    // k and never exceeds the true lambda.  The rounds rule stays off at
    // MixingTime's cap, where the round count no longer tracks the gap,
    // and never fires on an uncertified lambda_upper = 1.
    const size_t ritz_rounds = MixingTime(1.0 - out.lambda, n);
    const bool rounds_rule = ritz_rounds < kMaxMixingRounds;
    // A rule can hold only if both ends exclude everything beyond its
    // largest admissible U, less the margin: one probe per end at the
    // looser goal.  The bisections for the exact bound run only when the
    // probes pass or the cap is reached.
    double goal = (out.lambda + tolerance) / (1.0 + tolerance);
    if (rounds_rule) {
      goal = std::max(goal, 1.0 - log_n / static_cast<double>(ritz_rounds));
    }
    goal -= margin;
    const bool within =
        top.Excludes(goal, log_beta_product, log_target) &&
        bottom.Excludes(goal, log_beta_product, log_target);
    if (!within && k < max_iterations) continue;
    const double mu_hi =
        top.EdgeBound(theta_max, log_beta_product, log_target);
    const double mu_lo =
        -bottom.EdgeBound(neg_theta_min, log_beta_product, log_target);
    out.lambda_upper = std::min(
        1.0, std::max(std::fabs(mu_hi), std::fabs(mu_lo)) + margin);
    // The exact comparisons decide: ceil in MixingTime is sensitive to the
    // last bit, which the goal probe cannot see.
    const bool tight = out.lambda_upper - out.lambda <=
                       tolerance * (1.0 - out.lambda_upper);
    const bool same_rounds =
        rounds_rule && out.lambda_upper < 1.0 &&
        MixingTime(1.0 - out.lambda_upper, n) == ritz_rounds;
    if (tight || same_rounds) {
      out.converged = true;
      break;
    }
  }

  out.gap = std::max(0.0, 1.0 - out.lambda_upper);
  return out;
}

uint64_t SpectralEstimateCount() {
  return g_estimate_count.load(std::memory_order_relaxed);
}

}  // namespace netshuffle
