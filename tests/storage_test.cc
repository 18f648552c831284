#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "storage/block.h"
#include "storage/block_pool.h"
#include "storage/insert_destination.h"
#include "storage/storage_manager.h"
#include "storage/table.h"
#include "types/row_builder.h"

namespace uot {
namespace {

Schema TestSchema() {
  return Schema({{"id", Type::Int32()},
                 {"val", Type::Double()},
                 {"tag", Type::Char(6)}});
}

std::vector<std::byte> PackRow(const Schema& s, int32_t id, double val,
                               const std::string& tag) {
  RowBuilder row(&s);
  row.SetInt32(0, id);
  row.SetDouble(1, val);
  row.SetChar(2, tag);
  return std::vector<std::byte>(row.data(), row.data() + s.row_width());
}

class BlockLayoutTest : public ::testing::TestWithParam<Layout> {};

TEST_P(BlockLayoutTest, AppendAndReadBack) {
  const Schema schema = TestSchema();
  Block block(1, &schema, GetParam(), 1024);
  EXPECT_GT(block.capacity_rows(), 0u);
  EXPECT_TRUE(block.Empty());

  for (int i = 0; i < 10; ++i) {
    auto row = PackRow(schema, i, i * 1.5, "t" + std::to_string(i));
    ASSERT_TRUE(block.AppendRow(row.data()));
  }
  EXPECT_EQ(block.num_rows(), 10u);

  for (uint32_t r = 0; r < 10; ++r) {
    const ColumnAccess id = block.Column(0);
    int32_t v;
    std::memcpy(&v, id.at(r), 4);
    EXPECT_EQ(v, static_cast<int32_t>(r));
    double d;
    std::memcpy(&d, block.Column(1).at(r), 8);
    EXPECT_DOUBLE_EQ(d, r * 1.5);
  }
}

TEST_P(BlockLayoutTest, GetRowRoundTrips) {
  const Schema schema = TestSchema();
  Block block(1, &schema, GetParam(), 1024);
  const auto row_in = PackRow(schema, 42, 2.25, "abc");
  ASSERT_TRUE(block.AppendRow(row_in.data()));
  std::vector<std::byte> row_out(schema.row_width());
  block.GetRow(0, row_out.data());
  EXPECT_EQ(std::memcmp(row_in.data(), row_out.data(), schema.row_width()),
            0);
}

TEST_P(BlockLayoutTest, FillsToCapacityThenRejects) {
  const Schema schema = TestSchema();
  Block block(1, &schema, GetParam(), 256);
  const uint32_t cap = block.capacity_rows();
  EXPECT_EQ(cap, 256u / schema.row_width());
  const auto row = PackRow(schema, 1, 1.0, "x");
  for (uint32_t i = 0; i < cap; ++i) ASSERT_TRUE(block.AppendRow(row.data()));
  EXPECT_TRUE(block.Full());
  EXPECT_FALSE(block.AppendRow(row.data()));
  EXPECT_EQ(block.num_rows(), cap);
}

TEST_P(BlockLayoutTest, BulkAppendRespectsCapacity) {
  const Schema schema = TestSchema();
  Block block(1, &schema, GetParam(), 10 * schema.row_width());
  std::vector<std::byte> rows;
  for (int i = 0; i < 25; ++i) {
    const auto r = PackRow(schema, i, i, "b");
    rows.insert(rows.end(), r.begin(), r.end());
  }
  EXPECT_EQ(block.AppendRows(rows.data(), 25), 10u);
  EXPECT_TRUE(block.Full());
  int32_t v;
  std::memcpy(&v, block.Column(0).at(9), 4);
  EXPECT_EQ(v, 9);
}

TEST_P(BlockLayoutTest, ClearResets) {
  const Schema schema = TestSchema();
  Block block(1, &schema, GetParam(), 512);
  const auto row = PackRow(schema, 5, 5.0, "z");
  ASSERT_TRUE(block.AppendRow(row.data()));
  block.Clear();
  EXPECT_TRUE(block.Empty());
  EXPECT_TRUE(block.AppendRow(row.data()));
}

INSTANTIATE_TEST_SUITE_P(Layouts, BlockLayoutTest,
                         ::testing::Values(Layout::kRowStore,
                                           Layout::kColumnStore),
                         [](const auto& info) {
                           return info.param == Layout::kRowStore
                                      ? "RowStore"
                                      : "ColumnStore";
                         });

TEST(BlockTest, ColumnStrides) {
  const Schema schema = TestSchema();
  Block row_block(1, &schema, Layout::kRowStore, 1024);
  EXPECT_EQ(row_block.Column(0).stride, schema.row_width());
  EXPECT_EQ(row_block.Column(1).stride, schema.row_width());
  Block col_block(2, &schema, Layout::kColumnStore, 1024);
  EXPECT_EQ(col_block.Column(0).stride, 4u);
  EXPECT_EQ(col_block.Column(1).stride, 8u);
  EXPECT_EQ(col_block.Column(2).stride, 6u);
}

TEST(BlockTest, AllocatedBytesRoundsToWholeTuples) {
  const Schema schema = TestSchema();  // 18-byte rows
  Block block(1, &schema, Layout::kRowStore, 1000);
  EXPECT_EQ(block.capacity_rows(), 1000u / schema.row_width());
  EXPECT_EQ(block.allocated_bytes(),
            block.capacity_rows() * schema.row_width());
}

TEST(StorageManagerTest, TracksBlockMemory) {
  StorageManager storage;
  const Schema schema = TestSchema();
  Block* b1 = storage.CreateBlock(&schema, Layout::kRowStore, 1024,
                                  MemoryCategory::kBaseTable);
  Block* b2 = storage.CreateBlock(&schema, Layout::kColumnStore, 2048,
                                  MemoryCategory::kTemporaryTable);
  EXPECT_EQ(storage.num_blocks(), 2u);
  EXPECT_EQ(storage.tracker().Current(MemoryCategory::kBaseTable),
            static_cast<int64_t>(b1->allocated_bytes()));
  const int64_t temp_bytes = static_cast<int64_t>(b2->allocated_bytes());
  EXPECT_EQ(storage.tracker().Current(MemoryCategory::kTemporaryTable),
            temp_bytes);
  storage.DropBlock(b2);
  EXPECT_EQ(storage.num_blocks(), 1u);
  EXPECT_EQ(storage.tracker().Current(MemoryCategory::kTemporaryTable), 0);
  EXPECT_EQ(storage.tracker().Peak(MemoryCategory::kTemporaryTable),
            temp_bytes);
}

TEST(TableTest, AppendAcrossBlocks) {
  StorageManager storage;
  Table table("t", TestSchema(), Layout::kRowStore, 5 * 18, &storage,
              MemoryCategory::kBaseTable);
  const Schema& s = table.schema();
  for (int i = 0; i < 23; ++i) {
    const auto row = PackRow(s, i, i * 2.0, "r");
    table.AppendRow(row.data());
  }
  EXPECT_EQ(table.NumRows(), 23u);
  EXPECT_GE(table.blocks().size(), 5u);  // 5 rows per block
  EXPECT_EQ(table.GetValue(0, 0).AsInt32(), 0);
  EXPECT_EQ(table.GetValue(22, 0).AsInt32(), 22);
  EXPECT_DOUBLE_EQ(table.GetValue(13, 1).AsDouble(), 26.0);
}

TEST(TableTest, AppendValuesConvenience) {
  StorageManager storage;
  Table table("t", TestSchema(), Layout::kColumnStore, 1024, &storage,
              MemoryCategory::kBaseTable);
  table.AppendValues({TypedValue::Int32(1), TypedValue::Double(2.0),
                      TypedValue::Char("abc")});
  EXPECT_EQ(table.NumRows(), 1u);
  EXPECT_EQ(table.GetValue(0, 2).AsChar(), "abc");
}

TEST(TableTest, DropBlocksReleasesMemory) {
  StorageManager storage;
  {
    Table table("t", TestSchema(), Layout::kRowStore, 1024, &storage,
                MemoryCategory::kTemporaryTable);
    table.AppendValues({TypedValue::Int32(1), TypedValue::Double(1.0),
                        TypedValue::Char("a")});
    EXPECT_GT(storage.tracker().Current(MemoryCategory::kTemporaryTable), 0);
  }  // destructor drops blocks
  EXPECT_EQ(storage.tracker().Current(MemoryCategory::kTemporaryTable), 0);
  EXPECT_EQ(storage.num_blocks(), 0u);
}

TEST(BlockPoolTest, CheckoutReturnsPooledBlockFirst) {
  StorageManager storage;
  const Schema schema = TestSchema();
  BlockPool pool(&storage, &schema, Layout::kRowStore, 1024,
                 MemoryCategory::kTemporaryTable);
  Block* a = pool.Checkout();
  EXPECT_EQ(pool.PooledCount(), 0u);
  pool.Return(a);
  EXPECT_EQ(pool.PooledCount(), 1u);
  Block* b = pool.Checkout();
  EXPECT_EQ(b, a);  // reuse preserves locality (paper Section III-A)
}

TEST(BlockPoolTest, DrainAllEmptiesPool) {
  StorageManager storage;
  const Schema schema = TestSchema();
  BlockPool pool(&storage, &schema, Layout::kRowStore, 1024,
                 MemoryCategory::kTemporaryTable);
  Block* a = pool.Checkout();
  Block* b = pool.Checkout();
  EXPECT_NE(a, b);
  pool.Return(a);
  pool.Return(b);
  const auto drained = pool.DrainAll();
  EXPECT_EQ(drained.size(), 2u);
  EXPECT_EQ(pool.PooledCount(), 0u);
}

TEST(InsertDestinationTest, CompletesFullBlocksAndFlushesPartials) {
  StorageManager storage;
  Table out("out", TestSchema(), Layout::kRowStore, 4 * 18, &storage,
            MemoryCategory::kTemporaryTable);
  int ready_count = 0;
  InsertDestination dest(&storage, &out,
                         [&ready_count](Block*) { ++ready_count; });
  {
    InsertDestination::Writer writer(&dest);
    const Schema& s = out.schema();
    for (int i = 0; i < 10; ++i) {
      const auto row = PackRow(s, i, i, "w");
      writer.AppendRow(row.data());
    }
  }
  // 4 rows per block: two full blocks completed mid-writing.
  EXPECT_EQ(ready_count, 2);
  EXPECT_EQ(out.NumRows(), 8u);
  dest.Flush();  // the partial block (2 rows) becomes ready
  EXPECT_EQ(ready_count, 3);
  EXPECT_EQ(out.NumRows(), 10u);
  EXPECT_EQ(dest.blocks_completed(), 3u);
}

TEST(InsertDestinationTest, FlushDropsEmptyBlocks) {
  StorageManager storage;
  Table out("out", TestSchema(), Layout::kRowStore, 1024, &storage,
            MemoryCategory::kTemporaryTable);
  InsertDestination dest(&storage, &out, nullptr);
  { InsertDestination::Writer writer(&dest); }  // no rows written
  dest.Flush();
  EXPECT_EQ(out.NumRows(), 0u);
  EXPECT_EQ(out.blocks().size(), 0u);
  EXPECT_EQ(storage.num_blocks(), 0u);  // empty block dropped
}

TEST(InsertDestinationTest, ConcurrentWritersProduceAllRows) {
  StorageManager storage;
  Table out("out", TestSchema(), Layout::kRowStore, 8 * 18, &storage,
            MemoryCategory::kTemporaryTable);
  InsertDestination dest(&storage, &out, nullptr);
  constexpr int kThreads = 4, kRows = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&dest, &out, t] {
      InsertDestination::Writer writer(&dest);
      const Schema& s = out.schema();
      for (int i = 0; i < kRows; ++i) {
        const auto row = PackRow(s, t * kRows + i, i, "c");
        writer.AppendRow(row.data());
      }
    });
  }
  for (auto& t : threads) t.join();
  dest.Flush();
  EXPECT_EQ(out.NumRows(), static_cast<uint64_t>(kThreads * kRows));
  // 8 rows per block: the writers' partial blocks are coalesced.
  EXPECT_EQ(dest.blocks_completed(), (kThreads * kRows + 7u) / 8u);
}

class InsertDestinationLayoutTest : public ::testing::TestWithParam<Layout> {};

TEST_P(InsertDestinationLayoutTest,
       FlushCoalescesPartialsOfOverlappingWriters) {
  // Three writers alive at once each leave their own partial block in the
  // pool (3, 1 and 3 rows), as concurrent work orders do. Flush must
  // coalesce them so the block count is ceil(rows / capacity) whatever the
  // overlap, with every row present and the partition tag kept.
  StorageManager storage;
  Table out("out", TestSchema(), GetParam(), 4 * 18, &storage,
            MemoryCategory::kTemporaryTable);
  InsertDestination dest(&storage, &out, nullptr);
  dest.set_partition(2);
  const Schema& s = out.schema();
  constexpr int kRowsPerWriter[] = {7, 5, 3};
  int next_id = 0;
  {
    InsertDestination::Writer a(&dest), b(&dest), c(&dest);
    InsertDestination::Writer* writers[] = {&a, &b, &c};
    for (int w = 0; w < 3; ++w) {
      for (int i = 0; i < kRowsPerWriter[w]; ++i, ++next_id) {
        const auto row = PackRow(s, next_id, next_id * 0.5, "p");
        writers[w]->AppendRow(row.data());
      }
    }
  }
  EXPECT_EQ(dest.blocks_completed(), 2u);  // one full block each from a, b
  dest.Flush();

  constexpr uint64_t kRows = 15, kCapacity = 4;
  EXPECT_EQ(dest.blocks_completed(), (kRows + kCapacity - 1) / kCapacity);
  EXPECT_EQ(out.blocks().size(), dest.blocks_completed());
  EXPECT_EQ(storage.num_blocks(), out.blocks().size());  // emptied: dropped
  EXPECT_EQ(out.NumRows(), kRows);
  int partial_blocks = 0;
  std::vector<int> seen(kRows, 0);
  for (const Block* block : out.blocks()) {
    EXPECT_EQ(block->partition(), 2);
    if (!block->Full()) ++partial_blocks;
    for (uint32_t r = 0; r < block->num_rows(); ++r) {
      int32_t id = 0;
      double val = 0.0;
      std::memcpy(&id, block->Column(0).at(r), sizeof(id));
      std::memcpy(&val, block->Column(1).at(r), sizeof(val));
      ASSERT_GE(id, 0);
      ASSERT_LT(id, static_cast<int32_t>(kRows));
      EXPECT_DOUBLE_EQ(val, id * 0.5);
      ++seen[static_cast<size_t>(id)];
    }
  }
  EXPECT_EQ(partial_blocks, 1);
  for (uint64_t id = 0; id < kRows; ++id) EXPECT_EQ(seen[id], 1) << id;
}

INSTANTIATE_TEST_SUITE_P(Layouts, InsertDestinationLayoutTest,
                         ::testing::Values(Layout::kRowStore,
                                           Layout::kColumnStore),
                         [](const auto& info) {
                           return info.param == Layout::kRowStore
                                      ? "RowStore"
                                      : "ColumnStore";
                         });

}  // namespace
}  // namespace uot
