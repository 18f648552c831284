#ifndef UOT_STORAGE_BLOCK_H_
#define UOT_STORAGE_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "types/schema.h"
#include "util/macros.h"

namespace uot {

/// Physical organization of tuples inside a block (paper Section IV-B).
enum class Layout : uint8_t {
  kRowStore = 0,
  kColumnStore = 1,
};

const char* LayoutName(Layout layout);

using BlockId = uint64_t;

/// Strided view of one column inside a block.
///
/// Both layouts expose column values at a fixed byte stride: row stores at
/// stride `row_width`, column stores at stride `column width`. Vectorized
/// operators are written once against this view.
struct ColumnAccess {
  const std::byte* base;
  uint32_t stride;

  const std::byte* at(uint32_t row) const { return base + row * stride; }
};

/// A fixed-size storage block holding tuples of one schema (paper
/// Section III-A). Base tables and temporary operator outputs are both made
/// of blocks; the block size is fixed per table but configurable.
///
/// A block is written by at most one work order at a time (enforced by the
/// BlockPool checkout protocol), so appends are not internally synchronized;
/// reads of completed rows are safe concurrently with appends because
/// `num_rows` is only published after the row bytes are in place.
class Block {
 public:
  /// Creates a block with storage for `capacity_bytes` worth of tuples.
  Block(BlockId id, const Schema* schema, Layout layout,
        size_t capacity_bytes);
  UOT_DISALLOW_COPY_AND_ASSIGN(Block);

  BlockId id() const { return id_; }
  const Schema& schema() const { return *schema_; }
  Layout layout() const { return layout_; }

  uint32_t num_rows() const { return num_rows_; }
  uint32_t capacity_rows() const { return capacity_rows_; }
  bool Full() const { return num_rows_ == capacity_rows_; }
  bool Empty() const { return num_rows_ == 0; }

  /// Hash-partition this block's rows belong to, tagged by the exchange
  /// operator's per-partition insert destination (-1 = unpartitioned).
  /// Every row of a tagged block is in the same partition, so partition-
  /// aware consumers route whole blocks to the right hash sub-table.
  int32_t partition() const { return partition_; }
  void set_partition(int32_t partition) { partition_ = partition; }

  /// Bytes of backing storage (the configured block size rounded down to a
  /// whole number of tuples).
  size_t allocated_bytes() const { return allocated_bytes_; }

  /// Appends one packed row; returns false (and appends nothing) if full.
  bool AppendRow(const std::byte* packed_row);

  /// Appends up to `n` packed rows from a contiguous packed-row array;
  /// returns how many were appended.
  uint32_t AppendRows(const std::byte* packed_rows, uint32_t n);

  /// Moves as many rows as fit from the end of `src` (same schema and
  /// layout) to the end of this block, removing them from `src`; returns
  /// how many moved.
  uint32_t TakeTailRows(Block* src);

  /// Strided access to column `col` (valid for rows < num_rows()).
  ColumnAccess Column(int col) const {
    UOT_DCHECK(col >= 0 && col < schema_->num_columns());
    if (layout_ == Layout::kRowStore) {
      return ColumnAccess{data_.get() + schema_->offset(col),
                          schema_->row_width()};
    }
    return ColumnAccess{data_.get() + column_starts_[static_cast<size_t>(col)],
                        schema_->column(col).type.width()};
  }

  /// Extracts row `row` into `out` in packed-row format
  /// (`schema().row_width()` bytes).
  void GetRow(uint32_t row, std::byte* out) const;

  /// Clears all rows (block returns to the pool empty after a drop).
  void Clear() { num_rows_ = 0; }

 private:
  const BlockId id_;
  const Schema* schema_;  // owned by the table / destination, outlives block
  const Layout layout_;
  uint32_t capacity_rows_;
  uint32_t num_rows_ = 0;
  int32_t partition_ = -1;
  size_t allocated_bytes_;
  std::unique_ptr<std::byte[]> data_;
  // Byte offset where each column's array starts (column store only).
  std::vector<size_t> column_starts_;
};

}  // namespace uot

#endif  // UOT_STORAGE_BLOCK_H_
