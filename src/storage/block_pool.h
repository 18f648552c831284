#ifndef UOT_STORAGE_BLOCK_POOL_H_
#define UOT_STORAGE_BLOCK_POOL_H_

#include <mutex>
#include <vector>

#include "storage/block.h"
#include "storage/storage_manager.h"

namespace uot {

/// A thread-safe pool of partially filled temporary output blocks (paper
/// Section III-A).
///
/// During a work order's execution the worker checks out a block, appends
/// output rows to it, and returns it at the end of the work order. A block
/// is therefore used by at most one work order at any time, which preserves
/// write locality and reduces fragmentation by reusing output blocks.
///
/// Quickstep's pool is global over untyped blocks; here blocks are typed by
/// an output schema so the pool is per insert destination, with identical
/// checkout/return semantics (see DESIGN.md).
class BlockPool {
 public:
  BlockPool(StorageManager* storage, const Schema* schema, Layout layout,
            size_t block_bytes, MemoryCategory category);
  UOT_DISALLOW_COPY_AND_ASSIGN(BlockPool);

  /// Returns a partially filled block if one is pooled, else a new block.
  Block* Checkout();

  /// Returns a block to the pool at the end of a work order.
  void Return(Block* block);

  /// Removes and returns every pooled block (used when an operator
  /// finishes: its partially filled outputs become ready for transfer).
  /// Work orders that overlapped each left their own partial block here,
  /// so the caller (`InsertDestination::Flush`) coalesces them before
  /// announcing them; block counts then do not depend on the schedule.
  std::vector<Block*> DrainAll();

  size_t PooledCount() const;

 private:
  StorageManager* const storage_;
  const Schema* const schema_;
  const Layout layout_;
  const size_t block_bytes_;
  const MemoryCategory category_;

  mutable std::mutex mutex_;
  std::vector<Block*> pool_;
};

}  // namespace uot

#endif  // UOT_STORAGE_BLOCK_POOL_H_
