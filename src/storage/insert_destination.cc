#include "storage/insert_destination.h"

#include <algorithm>

namespace uot {

InsertDestination::InsertDestination(StorageManager* storage, Table* output,
                                     BlockReadyCallback on_block_ready,
                                     MemoryCategory category)
    : storage_(storage),
      output_(output),
      pool_(storage, &output->schema(), output->layout(),
            output->block_bytes(), category),
      on_block_ready_(std::move(on_block_ready)) {}

InsertDestination::Writer::Writer(InsertDestination* dest)
    : dest_(dest), block_(dest->pool_.Checkout()) {}

InsertDestination::Writer::~Writer() {
  // End of the work order: a block that filled up exactly on the last row
  // is ready for transfer; anything else goes back to the pool.
  if (block_->Full()) {
    dest_->CompleteBlock(block_);
  } else {
    dest_->pool_.Return(block_);
  }
}

void InsertDestination::Writer::AppendRow(const std::byte* packed_row) {
  while (!block_->AppendRow(packed_row)) {
    dest_->CompleteBlock(block_);
    block_ = dest_->pool_.Checkout();
  }
}

void InsertDestination::CompleteBlock(Block* block) {
  block->set_partition(partition_);
  output_->AddBlock(block);
  blocks_completed_.fetch_add(1, std::memory_order_relaxed);
  if (on_block_ready_) on_block_ready_(block);
}

void InsertDestination::Flush() {
  // Fullest first: [0, fill) are full, [drain, size) are empty, and rows
  // move from the tail of the range into its head until at most one
  // partial block is left.
  std::vector<Block*> blocks = pool_.DrainAll();
  std::stable_sort(blocks.begin(), blocks.end(),
                   [](const Block* a, const Block* b) {
                     return a->num_rows() > b->num_rows();
                   });
  size_t fill = 0;
  size_t drain = blocks.size();
  while (fill + 1 < drain) {
    blocks[fill]->TakeTailRows(blocks[drain - 1]);
    if (blocks[fill]->Full()) ++fill;
    if (blocks[drain - 1]->Empty()) --drain;
  }
  for (Block* block : blocks) {
    if (block->Empty()) {
      storage_->DropBlock(block);
      continue;
    }
    CompleteBlock(block);
  }
}

}  // namespace uot
