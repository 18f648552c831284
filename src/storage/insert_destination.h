#ifndef UOT_STORAGE_INSERT_DESTINATION_H_
#define UOT_STORAGE_INSERT_DESTINATION_H_

#include <atomic>
#include <functional>
#include <vector>

#include "storage/block_pool.h"
#include "storage/table.h"

namespace uot {

/// The output sink of a producer operator (paper Section III-A/B).
///
/// Each executing work order opens a Writer, which checks a partially
/// filled block out of the pool, appends output rows, and returns the block
/// when the work order finishes. Whenever a block fills up it is moved into
/// the output table and announced through `on_block_ready` — that signal is
/// what the scheduler's UoT policy accumulates to decide when data is
/// transferred to the consumer operator.
///
/// Concurrent work orders each hold their own partially filled block, so
/// how many partial blocks are left at the end depends on how the work
/// orders overlapped. `Flush()` coalesces them, so a destination that
/// received R rows completes exactly ceil(R / capacity) blocks. Block
/// counts, and so the transfer counts of a fixed UoT, depend only on the
/// plan and the data, never on the schedule or the number of workers.
class InsertDestination {
 public:
  /// Called with each completed (full or final partial) block. Invoked from
  /// worker threads; the callee must be thread-safe.
  using BlockReadyCallback = std::function<void(Block*)>;

  /// `output` receives completed blocks and must outlive this destination.
  InsertDestination(StorageManager* storage, Table* output,
                    BlockReadyCallback on_block_ready,
                    MemoryCategory category = MemoryCategory::kTemporaryTable);
  UOT_DISALLOW_COPY_AND_ASSIGN(InsertDestination);

  const Schema& schema() const { return output_->schema(); }
  Table* output() const { return output_; }

  /// Declares this destination the sink of one hash partition: every block
  /// it completes is tagged with `partition` so partition-aware consumers
  /// (partitioned build/probe) can route it. Call before execution starts.
  /// -1 (the default) leaves blocks untagged.
  void set_partition(int32_t partition) { partition_ = partition; }
  int32_t partition() const { return partition_; }

  /// Installs/replaces the block-ready listener; must be called before
  /// execution starts (not thread-safe against concurrent writers).
  void set_on_block_ready(BlockReadyCallback cb) {
    on_block_ready_ = std::move(cb);
  }

  /// A work-order-scoped writer. Movable-from only by the factory.
  class Writer {
   public:
    explicit Writer(InsertDestination* dest);
    ~Writer();
    UOT_DISALLOW_COPY_AND_ASSIGN(Writer);

    /// Appends one packed row (schema().row_width() bytes).
    void AppendRow(const std::byte* packed_row);

   private:
    InsertDestination* const dest_;
    Block* block_;
  };

  /// Announces every pooled partially-filled block as ready; called once
  /// when the producer operator has executed all of its work orders
  /// ("partially filled blocks are scheduled for data transfer at the end
  /// of the operator's execution"). The pooled blocks are first coalesced:
  /// rows move from the least-filled blocks into the fullest ones until at
  /// most one block is partial, and blocks left empty are dropped. With a
  /// single pooled block (one writer at a time) nothing is copied.
  void Flush();

  /// Number of blocks announced ready so far.
  uint64_t blocks_completed() const { return blocks_completed_; }

 private:
  friend class Writer;

  void CompleteBlock(Block* block);

  StorageManager* const storage_;
  Table* const output_;
  BlockPool pool_;
  BlockReadyCallback on_block_ready_;
  int32_t partition_ = -1;
  std::atomic<uint64_t> blocks_completed_{0};
};

}  // namespace uot

#endif  // UOT_STORAGE_INSERT_DESTINATION_H_
