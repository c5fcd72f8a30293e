// The paper's block-correctness formulas (Eqs. 2, 3, 6), generalized to a
// t-error-correcting code and computed stably in log space.
//
// Eq. (2): correct delivery with no accumulation --
//   P_corr(n, p)        = P[X <= t], X ~ Binomial(n, p)         (paper: t=1)
// Eq. (3): after N-1 concealed reads plus the real read --
//   P_corr_acc(n, N, p) = P[X <= t], X ~ Binomial(N*n, p)
// Eq. (6): REAP checks every read --
//   P_corr_reap(n,N,p)  = P_corr(n, p)^N
//
// `n` is the line's count of '1' cells (disturbance is unidirectional),
// `p` the per-cell per-read disturb probability (mtj::read_disturb), and
// `N` the total reads between two checked reads (concealed + 1).
#pragma once

#include <cstdint>
#include <vector>

#include "reap/common/memo.hpp"

namespace reap::reliability {

// P[X <= t] for X ~ Binomial(trials, p) -- probability the code corrects.
double p_correct(std::uint64_t trials, unsigned t, double p);

// 1 - p_correct, full precision for rare events.
double p_uncorrectable(std::uint64_t trials, unsigned t, double p);

// Eq. (2): one checked read of a line with n ones, SEC-style capability t.
double p_correct_block(std::uint64_t n_ones, double p_rd, unsigned t = 1);
double p_uncorrectable_block(std::uint64_t n_ones, double p_rd, unsigned t = 1);

// Eq. (3): checked read after accumulation across N total reads.
double p_correct_block_acc(std::uint64_t n_ones, std::uint64_t n_reads,
                           double p_rd, unsigned t = 1);
double p_uncorrectable_block_acc(std::uint64_t n_ones, std::uint64_t n_reads,
                                 double p_rd, unsigned t = 1);

// Eq. (6): REAP -- every one of the N reads individually checked.
double p_correct_block_reap(std::uint64_t n_ones, std::uint64_t n_reads,
                            double p_rd, unsigned t = 1);
double p_uncorrectable_block_reap(std::uint64_t n_ones, std::uint64_t n_reads,
                                  double p_rd, unsigned t = 1);

// Memoized evaluator bound to fixed (p_rd, t): the policies call this once
// per checked read. Single-read factors are cached eagerly per ones count;
// conventional() keeps a direct-mapped memo keyed by its trial count (the
// only input the tail depends on), so the simulator's hot loop pays the
// log-space tail computation only on a memo miss. The memos never change a
// returned value -- a collision just recomputes -- so results are identical
// with or without them. Not thread-safe: a model belongs to one thread.
// core::run_experiment_group shares one model among the observers of its
// walk that agree on (p_rd, t, line bits), since they run on its thread.
class UncorrectableModel {
 public:
  UncorrectableModel(double p_rd, unsigned t, std::uint64_t max_cached_ones);

  double p_rd() const { return p_rd_; }
  unsigned t() const { return t_; }

  // Eq. (3) failure for a conventional checked read.
  double conventional(std::uint64_t n_ones, std::uint64_t n_reads) const;

  // Eq. (6) failure for a REAP checked read.
  double reap(std::uint64_t n_ones, std::uint64_t n_reads) const;

  // Single-read failure (Eq. 2), cached for n_ones <= max_cached_ones.
  double single(std::uint64_t n_ones) const;

  // log P_corr(n, p) for one read, cached likewise.
  double log_p_correct_single(std::uint64_t n_ones) const;

 private:
  double p_rd_;
  unsigned t_;
  // cache_[n] = log p_correct(n, t, p_rd); filled eagerly at construction.
  std::vector<double> log_pcorr_cache_;
  // Memo for conventional(), keyed by the trial count (the only input the
  // tail depends on).
  mutable common::DirectMappedMemo<double, 1 << 13> conv_memo_;
};

}  // namespace reap::reliability
