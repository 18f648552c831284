#include "storage/block.h"

namespace uot {

const char* LayoutName(Layout layout) {
  return layout == Layout::kRowStore ? "row-store" : "column-store";
}

Block::Block(BlockId id, const Schema* schema, Layout layout,
             size_t capacity_bytes)
    : id_(id), schema_(schema), layout_(layout) {
  UOT_CHECK(schema_ != nullptr && schema_->row_width() > 0);
  capacity_rows_ =
      static_cast<uint32_t>(capacity_bytes / schema_->row_width());
  UOT_CHECK(capacity_rows_ > 0);
  allocated_bytes_ = static_cast<size_t>(capacity_rows_) *
                     schema_->row_width();
  // No zero-initialization: only rows < num_rows() are ever read.
  data_ = std::make_unique_for_overwrite<std::byte[]>(allocated_bytes_);
  if (layout_ == Layout::kColumnStore) {
    column_starts_.reserve(static_cast<size_t>(schema_->num_columns()));
    size_t start = 0;
    for (int c = 0; c < schema_->num_columns(); ++c) {
      column_starts_.push_back(start);
      start += static_cast<size_t>(capacity_rows_) *
               schema_->column(c).type.width();
    }
  }
}

bool Block::AppendRow(const std::byte* packed_row) {
  if (Full()) return false;
  const uint32_t row = num_rows_;
  if (layout_ == Layout::kRowStore) {
    std::memcpy(data_.get() + static_cast<size_t>(row) * schema_->row_width(),
                packed_row, schema_->row_width());
  } else {
    for (int c = 0; c < schema_->num_columns(); ++c) {
      const uint16_t w = schema_->column(c).type.width();
      std::memcpy(data_.get() + column_starts_[static_cast<size_t>(c)] +
                      static_cast<size_t>(row) * w,
                  packed_row + schema_->offset(c), w);
    }
  }
  ++num_rows_;
  return true;
}

uint32_t Block::AppendRows(const std::byte* packed_rows, uint32_t n) {
  const uint32_t space = capacity_rows_ - num_rows_;
  const uint32_t count = n < space ? n : space;
  if (count == 0) return 0;
  if (layout_ == Layout::kRowStore) {
    std::memcpy(
        data_.get() + static_cast<size_t>(num_rows_) * schema_->row_width(),
        packed_rows, static_cast<size_t>(count) * schema_->row_width());
  } else {
    for (int c = 0; c < schema_->num_columns(); ++c) {
      const uint16_t w = schema_->column(c).type.width();
      std::byte* dst = data_.get() + column_starts_[static_cast<size_t>(c)] +
                       static_cast<size_t>(num_rows_) * w;
      const std::byte* src = packed_rows + schema_->offset(c);
      for (uint32_t i = 0; i < count; ++i) {
        std::memcpy(dst, src, w);
        dst += w;
        src += schema_->row_width();
      }
    }
  }
  num_rows_ += count;
  return count;
}

uint32_t Block::TakeTailRows(Block* src) {
  UOT_DCHECK(src != this && src->schema_ == schema_ &&
             src->layout_ == layout_);
  const uint32_t space = capacity_rows_ - num_rows_;
  const uint32_t count = src->num_rows_ < space ? src->num_rows_ : space;
  if (count == 0) return 0;
  const uint32_t from = src->num_rows_ - count;
  if (layout_ == Layout::kRowStore) {
    AppendRows(src->data_.get() +
                   static_cast<size_t>(from) * schema_->row_width(),
               count);
  } else {
    for (int c = 0; c < schema_->num_columns(); ++c) {
      const uint16_t w = schema_->column(c).type.width();
      const size_t start = column_starts_[static_cast<size_t>(c)];
      const size_t src_start = src->column_starts_[static_cast<size_t>(c)];
      std::memcpy(data_.get() + start + static_cast<size_t>(num_rows_) * w,
                  src->data_.get() + src_start + static_cast<size_t>(from) * w,
                  static_cast<size_t>(count) * w);
    }
    num_rows_ += count;
  }
  src->num_rows_ = from;
  return count;
}

void Block::GetRow(uint32_t row, std::byte* out) const {
  UOT_DCHECK(row < num_rows_);
  if (layout_ == Layout::kRowStore) {
    std::memcpy(out,
                data_.get() + static_cast<size_t>(row) * schema_->row_width(),
                schema_->row_width());
    return;
  }
  for (int c = 0; c < schema_->num_columns(); ++c) {
    const uint16_t w = schema_->column(c).type.width();
    std::memcpy(out + schema_->offset(c),
                data_.get() + column_starts_[static_cast<size_t>(c)] +
                    static_cast<size_t>(row) * w,
                w);
  }
}

}  // namespace uot
