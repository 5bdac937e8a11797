#ifndef SPANGLE_MATRIX_BLOCK_MATRIX_H_
#define SPANGLE_MATRIX_BLOCK_MATRIX_H_

#include <memory>
#include <unordered_set>
#include <vector>

#include "array/array_rdd.h"
#include "matrix/block_vector.h"
#include "matrix/partition.h"

namespace spangle {

/// One matrix entry (COO triple) for ingest.
struct MatrixEntry {
  uint64_t row = 0;
  uint64_t col = 0;
  double value = 0;
};

/// Options for Multiply. Local join fires automatically when the operand
/// placement allows it; `force_shuffle_join` disables the optimization so
/// benches can measure what it saves.
struct MatMulOptions {
  bool force_shuffle_join = false;
};

/// A distributed matrix built on ArrayRdd: two dimensions (row, col)
/// chunked into square `block x block` tiles, each tile a payload +
/// bitmask chunk. Zero entries are *invalid* cells (paper Sec. IV-A: "in
/// matrix operations, zero is treated as invalid"), so sparse matrices
/// compress and multiplications skip zero operands via the bitmask.
class BlockMatrix {
 public:
  BlockMatrix() = default;

  /// Builds from COO entries. `scheme` chooses chunk placement; see
  /// PartitionScheme for the multiply-local-join interaction.
  static Result<BlockMatrix> FromEntries(
      Context* ctx, uint64_t rows, uint64_t cols, uint64_t block,
      const std::vector<MatrixEntry>& entries,
      ModePolicy policy = ModePolicy::Auto(),
      PartitionScheme scheme = PartitionScheme::kHashChunk,
      int num_partitions = 0);

  uint64_t rows() const { return rows_; }
  uint64_t cols() const { return cols_; }
  uint64_t block() const { return block_; }
  uint64_t num_row_blocks() const { return (rows_ + block_ - 1) / block_; }
  uint64_t num_col_blocks() const { return (cols_ + block_ - 1) / block_; }
  Context* ctx() const { return array_.ctx(); }

  const ArrayRdd& array() const { return array_; }
  ArrayRdd& array() { return array_; }
  PartitionScheme scheme() const { return scheme_; }

  BlockMatrix& Cache(StorageLevel level = StorageLevel::kMemoryOnly) {
    array_.Cache(level);
    return *this;
  }

  /// Staged physical plan for running `action` over the tiles (see
  /// Rdd::Explain): shows which shuffles an operation would run — e.g.
  /// co-partitioned Add plans zero pending shuffle stages while a
  /// forced-shuffle Multiply plans two independent scatter stages.
  std::string Explain(const std::string& action = "collect") const {
    return array_.Explain(action);
  }

  /// EXECUTES `action` over the tiles and returns the plan annotated
  /// with actuals (see Rdd::ExplainAnalyze): per-node tile counts, bytes,
  /// tile modes — e.g. how many partial products a Multiply reduced.
  AnalyzedPlan ExplainAnalyzePlan(
      const std::string& action = "collect") const {
    return array_.ExplainAnalyzePlan(action);
  }
  std::string ExplainAnalyze(const std::string& action = "collect") const {
    return array_.ExplainAnalyze(action);
  }

  /// Number of stored (non-zero) entries.
  uint64_t NumNonZero() const { return array_.CountValid(); }

  /// In-memory footprint of all tiles.
  size_t MemoryBytes() const { return array_.MemoryBytes(); }

  /// Entry (r, c); 0.0 when not stored.
  double Get(uint64_t r, uint64_t c) const;

  /// Every stored entry multiplied by `factor` (embarrassingly parallel).
  BlockMatrix Scale(double factor) const;

  /// sqrt(sum of squared entries).
  double FrobeniusNorm() const;

  /// Sum of diagonal entries (square matrices).
  Result<double> Trace() const;

  /// Gathers to a dense row-major buffer (tests/small matrices only).
  std::vector<double> ToDense() const;

  /// Element-wise sum; tiles join with cogroup so one-sided tiles pass
  /// through. Embarrassingly parallel when co-partitioned (no shuffle).
  Result<BlockMatrix> Add(const BlockMatrix& other) const;

  /// this - other.
  Result<BlockMatrix> Subtract(const BlockMatrix& other) const;

  /// Element-wise (Hadamard) product: the bitwise AND of the two tiles'
  /// bitmasks prunes every pair with a zero operand before any multiply
  /// (paper Sec. IV-A / Fig. 5).
  Result<BlockMatrix> Hadamard(const BlockMatrix& other) const;

  /// Matrix product (scatter/gather): tiles cogroup on the contraction
  /// block index, one pass per group multiplies all of its tile pairs, and
  /// partial tile products reduce by output position. When `this` is
  /// placed kByColBlock and `other` kByRowBlock with equal partition
  /// counts, the cogroup is local and neither matrix shuffles (Sec. VI-A).
  Result<BlockMatrix> Multiply(const BlockMatrix& other,
                               const MatMulOptions& options = {}) const;

  /// M x v (column vector in, column vector out). Each tile is multiplied
  /// in the partition of the vector block it reads; only per-row-block
  /// partial sums shuffle. A matrix placed kByColBlock with the vector's
  /// partition count moves no tiles; any other placement re-places them
  /// once per call.
  Result<BlockVector> MultiplyVector(const BlockVector& v) const;

  /// vT x M (row vector in, row vector out). Never transposes the matrix;
  /// with a metadata-transposed vector this is the opt1 path of Eq. 3.
  /// The same pipeline as MultiplyVector with rows and columns swapped:
  /// kByRowBlock placement with the vector's partition count moves no
  /// tiles.
  Result<BlockVector> LeftMultiplyVector(const BlockVector& v) const;

  /// Narrow row-band selection: keeps only tiles whose row block index is
  /// in `keep`. With kByRowBlock placement this filters each partition
  /// locally — the shuffle-free mini-batch sampling that Eq. 2's
  /// reversible chunk ids enable (paper Sec. VI-C).
  BlockMatrix FilterRowBlocks(
      const std::shared_ptr<const std::unordered_set<uint64_t>>& keep) const;

  /// Full physical transpose (expensive: every tile rewritten+shuffled).
  BlockMatrix Transpose() const;

  /// MT x M via physical transpose then multiply — the expensive pattern
  /// most systems in Fig. 10 struggle with.
  Result<BlockMatrix> TransposeSelfMultiply(
      const MatMulOptions& options = {}) const;

 private:
  static ArrayMetadata MakeMeta(uint64_t rows, uint64_t cols, uint64_t block);

  uint64_t rows_ = 0;
  uint64_t cols_ = 0;
  uint64_t block_ = 0;
  PartitionScheme scheme_ = PartitionScheme::kHashChunk;
  ArrayRdd array_;
};

/// Multiplies two tiles: out[r, c] += a[r, j] * b[j, c], skipping invalid
/// (zero) operands via the bitmasks. `bs` is the block edge length. A
/// pair with fewer than bs*bs/8 candidate products runs a sorted-COO
/// merge over the two offset-sorted cell lists (paper Sec. V-A4's offset
/// arrays); denser pairs accumulate into a bs*bs buffer. Both add the
/// products of one output cell from 0.0 in the same order, so they round
/// alike. Returns offset-sorted cells. Exposed for benches.
std::vector<std::pair<uint32_t, double>> MultiplyTiles(const Chunk& a,
                                                       const Chunk& b,
                                                       uint32_t bs);

}  // namespace spangle

#endif  // SPANGLE_MATRIX_BLOCK_MATRIX_H_
