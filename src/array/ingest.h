#ifndef SPANGLE_ARRAY_INGEST_H_
#define SPANGLE_ARRAY_INGEST_H_

#include <string>
#include <vector>

#include "array/spangle_array.h"
#include "common/result.h"

namespace spangle {

/// File ingest (paper Sec. III-A: "Spangle first ingests data (e.g., CSV
/// and NetCDF)"). Two formats:
///
/// * CSV — header `dim1,...,dimN,attr1,...,attrM`, one row per cell:
///   integer coordinates then attribute values; an empty field or "nan"
///   is a null.
/// * .sgrid — a minimal binary dense-grid container standing in for
///   NetCDF: a header describing dimensions/attributes followed by
///   row-major float64 planes per attribute, NaN marking nulls.

/// Reads a CSV file into a multi-attribute array. `meta` fixes dimension
/// order, bounds and chunking; attribute columns follow the dims in the
/// header. A position on several rows keeps, per attribute, the value of
/// the last of those rows whose field is neither null nor NaN.
Result<SpangleArray> ReadCsv(Context* ctx, const std::string& path,
                             const ArrayMetadata& meta,
                             ModePolicy policy = ModePolicy::Auto(),
                             bool use_mask_rdd = true);

/// Writes an sgrid file with the given attribute planes. Each plane must
/// hold metadata.total_cells() row-major doubles; NaN encodes null.
Status WriteSgrid(const std::string& path, const ArrayMetadata& meta,
                  const std::vector<std::string>& attr_names,
                  const std::vector<std::vector<double>>& planes);

/// Reads an sgrid file into a multi-attribute array.
Result<SpangleArray> ReadSgrid(Context* ctx, const std::string& path,
                               ModePolicy policy = ModePolicy::Auto(),
                               bool use_mask_rdd = true,
                               const std::vector<uint64_t>* chunk_override =
                                   nullptr);

/// Writes the array's *reconciled* attributes as CSV (header = dims then
/// attributes; one row per cell valid in at least one attribute, empty
/// fields for per-attribute nulls). Rows are coordinate-sorted.
Status WriteCsv(const SpangleArray& array, const std::string& path);

}  // namespace spangle

#endif  // SPANGLE_ARRAY_INGEST_H_
