#include "dmst/util/table.h"

#include <iomanip>
#include <ostream>
#include <sstream>

#include "dmst/util/assert.h"

namespace dmst {

Table::Table(std::vector<std::string> columns) : columns_(std::move(columns))
{
    DMST_ASSERT(!columns_.empty());
}

Table& Table::new_row()
{
    rows_.emplace_back();
    return *this;
}

Table& Table::add(const std::string& value)
{
    DMST_ASSERT_MSG(!rows_.empty(), "call new_row() before add()");
    DMST_ASSERT_MSG(rows_.back().size() < columns_.size(), "row has too many cells");
    rows_.back().push_back(value);
    return *this;
}

Table& Table::add(std::int64_t value)
{
    return add(std::to_string(value));
}

Table& Table::add(std::uint64_t value)
{
    return add(std::to_string(value));
}

Table& Table::add(double value, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << value;
    return add(os.str());
}

void Table::print(std::ostream& os) const
{
    std::vector<std::size_t> widths(columns_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c)
        widths[c] = columns_[c].size();
    for (const auto& row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto emit = [&](const std::vector<std::string>& cells) {
        for (std::size_t c = 0; c < columns_.size(); ++c) {
            const std::string& cell = c < cells.size() ? cells[c] : std::string{};
            os << std::setw(static_cast<int>(widths[c])) << cell;
            os << (c + 1 == columns_.size() ? "\n" : "  ");
        }
    };

    emit(columns_);
    std::size_t total = 0;
    for (std::size_t w : widths)
        total += w;
    total += 2 * (columns_.size() - 1);
    os << std::string(total, '-') << "\n";
    for (const auto& row : rows_)
        emit(row);
}

}  // namespace dmst
