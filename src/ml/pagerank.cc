#include "ml/pagerank.h"

#include <cmath>

#include "common/stopwatch.h"
#include "matrix/mask_matrix.h"

namespace spangle {

Result<PageRankResult> PageRank(
    Context* ctx, uint64_t n,
    const std::vector<std::pair<uint64_t, uint64_t>>& edges,
    const PageRankOptions& options) {
  if (n == 0) return Status::InvalidArgument("graph has no vertices");
  // A'[dst][src] = 1 for every edge src -> dst.
  std::vector<std::pair<uint64_t, uint64_t>> dst_src;
  dst_src.reserve(edges.size());
  for (const auto& [src, dst] : edges) dst_src.emplace_back(dst, src);
  SPANGLE_ASSIGN_OR_RETURN(
      MaskMatrix a_prime,
      MaskMatrix::FromEdges(ctx, n, options.block, dst_src,
                            options.super_sparse, options.num_partitions));
  a_prime.Cache(options.storage_level);

  // w[j] = 1 / outdeg(j); dangling nodes keep w = 0 (the basic variant
  // the paper evaluates).
  auto degrees = a_prime.ColumnDegrees();
  std::vector<double> w(n, 0.0);
  std::vector<double> dangling_ind(n, 0.0);
  for (uint64_t j = 0; j < n; ++j) {
    if (degrees[j] > 0) {
      w[j] = 1.0 / static_cast<double>(degrees[j]);
    } else {
      dangling_ind[j] = 1.0;
    }
  }
  BlockVector w_vec = BlockVector::FromDense(ctx, w, options.block,
                                             options.num_partitions);
  w_vec.Cache();
  BlockVector dangling_vec = BlockVector::FromDense(
      ctx, dangling_ind, options.block, options.num_partitions);
  dangling_vec.Cache();

  const double alpha = options.damping;
  const double teleport = (1.0 - alpha) / static_cast<double>(n);
  BlockVector p = BlockVector::FromDense(
      ctx, std::vector<double>(n, 1.0 / static_cast<double>(n)),
      options.block, options.num_partitions);

  PageRankResult result;
  result.matrix_bytes = a_prime.MemoryBytes();
  result.iteration_seconds.reserve(options.iterations);
  result.ranks = p.ToDense();
  for (int it = 0; it < options.iterations; ++it) {
    Stopwatch timer;
    // p <- alpha * (A'(w o p) + dangling_mass/n) + (1 - alpha)/n.
    SPANGLE_ASSIGN_OR_RETURN(BlockVector wp, w_vec.Hadamard(p));
    SPANGLE_ASSIGN_OR_RETURN(BlockVector ap, a_prime.MultiplyVector(wp));
    double dangling_share = 0.0;
    if (options.redistribute_dangling) {
      SPANGLE_ASSIGN_OR_RETURN(BlockVector dp, dangling_vec.Hadamard(p));
      dangling_share = dp.Sum() / static_cast<double>(n);
    }
    p = ap.Map([alpha, teleport, dangling_share](double v) {
      return alpha * (v + dangling_share) + teleport;
    });
    p.Cache(options.storage_level);
    auto next = p.ToDense();  // action: materializes this iteration
    double delta = 0;
    for (uint64_t v = 0; v < n; ++v) {
      delta += std::abs(next[v] - result.ranks[v]);
    }
    result.ranks = std::move(next);
    result.deltas.push_back(delta);
    result.iteration_seconds.push_back(timer.ElapsedSeconds());
    if (options.on_iteration) options.on_iteration(it, delta);
    if (options.tolerance > 0 && delta < options.tolerance) {
      result.converged = true;
      break;
    }
  }
  return result;
}

}  // namespace spangle
