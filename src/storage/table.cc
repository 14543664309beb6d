#include "storage/table.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <sstream>

#include "common/str_util.h"

namespace eve {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.size());
  for (const AttributeDef& attr : schema_.attributes()) {
    columns_.push_back(std::make_shared<ColumnChunk>(attr.type));
  }
}

Table Table::FromColumns(
    Schema schema, std::vector<std::shared_ptr<const ColumnChunk>> columns,
    size_t num_rows) {
  Table t;
  t.schema_ = std::move(schema);
  t.columns_ = std::move(columns);
  t.num_rows_ = num_rows;
  assert(t.columns_.size() == t.schema_.size());
  return t;
}

Tuple Table::Row(size_t r) const {
  Tuple row;
  row.reserve(columns_.size());
  for (const auto& col : columns_) row.push_back(col->GetValue(r));
  return row;
}

ColumnChunk& Table::MutableColumn(size_t i) {
  if (columns_[i].use_count() > 1) {
    columns_[i] = std::make_shared<ColumnChunk>(*columns_[i]);
  }
  // Safe: this table is the sole owner now.
  return const_cast<ColumnChunk&>(*columns_[i]);
}

Status Table::Insert(Tuple tuple) {
  EVE_RETURN_IF_ERROR(ValidateTuple(schema_, tuple));
  InsertUnchecked(std::move(tuple));
  return Status::OK();
}

void Table::InsertUnchecked(Tuple tuple) {
  assert(tuple.size() == columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    MutableColumn(i).Append(tuple[i]);
  }
  ++num_rows_;
  dedup_sorted_ = false;
}

void Table::Clear() {
  for (size_t i = 0; i < columns_.size(); ++i) {
    // Fresh chunks instead of Clear() so shared readers keep their data.
    columns_[i] =
        std::make_shared<ColumnChunk>(schema_.attribute(i).type);
  }
  num_rows_ = 0;
  dedup_sorted_ = false;
}

void Table::Reserve(size_t rows) {
  for (size_t i = 0; i < columns_.size(); ++i) MutableColumn(i).Reserve(rows);
}

Status Table::DropColumn(const std::string& name) {
  const auto idx = schema_.IndexOf(name);
  if (!idx) return Status::NotFound("column not found: " + name);
  std::vector<AttributeDef> attrs = schema_.attributes();
  attrs.erase(attrs.begin() + static_cast<ptrdiff_t>(*idx));
  EVE_ASSIGN_OR_RETURN(schema_, Schema::Create(std::move(attrs)));
  columns_.erase(columns_.begin() + static_cast<ptrdiff_t>(*idx));
  dedup_sorted_ = false;
  return Status::OK();
}

Status Table::RenameColumn(const std::string& name,
                           const std::string& new_name) {
  const auto idx = schema_.IndexOf(name);
  if (!idx) return Status::NotFound("column not found: " + name);
  if (name == new_name) return Status::OK();
  if (schema_.Contains(new_name)) {
    return Status::AlreadyExists("column already exists: " + new_name);
  }
  std::vector<AttributeDef> attrs = schema_.attributes();
  attrs[*idx].name = new_name;
  EVE_ASSIGN_OR_RETURN(schema_, Schema::Create(std::move(attrs)));
  // Column data is untouched: a rename is schema-only.
  return Status::OK();
}

Status Table::AddColumn(AttributeDef attr) {
  if (schema_.Contains(attr.name)) {
    return Status::AlreadyExists("column already exists: " + attr.name);
  }
  DataType type = attr.type;
  std::vector<AttributeDef> attrs = schema_.attributes();
  attrs.push_back(std::move(attr));
  EVE_ASSIGN_OR_RETURN(schema_, Schema::Create(std::move(attrs)));
  columns_.push_back(std::make_shared<ColumnChunk>(
      ColumnChunk::MakeAllNull(type, num_rows_)));
  dedup_sorted_ = false;
  return Status::OK();
}

int Table::CompareTableRows(const Table& a, size_t ra, const Table& b,
                            size_t rb) {
  const size_t n = std::min(a.columns_.size(), b.columns_.size());
  for (size_t i = 0; i < n; ++i) {
    int c = a.columns_[i]->CompareRows(ra, *b.columns_[i], rb);
    if (c != 0) return c;
  }
  // TupleLess tiebreak: shorter tuple (fewer columns) sorts first.
  return a.columns_.size() < b.columns_.size()
             ? -1
             : (a.columns_.size() > b.columns_.size() ? 1 : 0);
}

bool Table::TableRowsEqual(const Table& a, size_t ra, const Table& b,
                           size_t rb) {
  if (a.columns_.size() != b.columns_.size()) return false;
  for (size_t i = 0; i < a.columns_.size(); ++i) {
    if (!a.columns_[i]->RowsEqual(ra, *b.columns_[i], rb)) return false;
  }
  return true;
}

std::vector<uint32_t> Table::SortedRowIndex(const Table& t, bool unique) {
  std::vector<uint32_t> idx(t.num_rows_);
  std::iota(idx.begin(), idx.end(), 0u);
  if (!t.dedup_sorted_) {
    std::sort(idx.begin(), idx.end(), [&t](uint32_t a, uint32_t b) {
      return CompareTableRows(t, a, t, b) < 0;
    });
    if (unique) {
      idx.erase(std::unique(idx.begin(), idx.end(),
                            [&t](uint32_t a, uint32_t b) {
                              return TableRowsEqual(t, a, t, b);
                            }),
                idx.end());
    }
  }
  return idx;
}

void Table::GatherInPlace(const std::vector<uint32_t>& rows) {
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i] =
        std::make_shared<ColumnChunk>(columns_[i]->Gather(rows));
  }
  num_rows_ = rows.size();
}

void Table::Deduplicate() {
  if (dedup_sorted_) return;
  std::vector<uint32_t> idx = SortedRowIndex(*this, /*unique=*/true);
  // Skip the rebuild when already sorted+unique in place.
  bool identity = idx.size() == num_rows_;
  if (identity) {
    for (size_t i = 0; i < idx.size(); ++i) {
      if (idx[i] != i) {
        identity = false;
        break;
      }
    }
  }
  if (!identity) GatherInPlace(idx);
  dedup_sorted_ = true;
}

bool Table::IsSubsetOf(const Table& other) const {
  std::vector<uint32_t> mine = SortedRowIndex(*this, /*unique=*/true);
  std::vector<uint32_t> theirs = SortedRowIndex(other, /*unique=*/false);
  // Two-pointer std::includes over the sorted index views.
  size_t j = 0;
  for (uint32_t r : mine) {
    while (j < theirs.size() &&
           CompareTableRows(other, theirs[j], *this, r) < 0) {
      ++j;
    }
    if (j == theirs.size() ||
        CompareTableRows(other, theirs[j], *this, r) != 0) {
      return false;
    }
  }
  return true;
}

bool Table::SetEquals(const Table& other) const {
  return IsSubsetOf(other) && other.IsSubsetOf(*this);
}

std::string Table::ToString(size_t max_rows) const {
  std::ostringstream os;
  std::vector<std::string> header;
  header.reserve(schema_.size());
  for (const AttributeDef& attr : schema_.attributes()) {
    header.push_back(attr.name);
  }
  os << "| " << Join(header, " | ") << " |\n";
  for (size_t r = 0; r < num_rows_; ++r) {
    if (r >= max_rows) {
      os << "... (" << num_rows_ - max_rows << " more rows)\n";
      break;
    }
    std::vector<std::string> cells;
    cells.reserve(columns_.size());
    for (const Value& v : Row(r)) cells.push_back(v.ToString());
    os << "| " << Join(cells, " | ") << " |\n";
  }
  os << "(" << num_rows_ << " rows)\n";
  return os.str();
}

}  // namespace eve
