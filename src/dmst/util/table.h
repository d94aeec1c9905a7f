#ifndef DMST_UTIL_TABLE_H
#define DMST_UTIL_TABLE_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace dmst {

// Small column-aligned table that the gate, bench and example binaries
// print their rows through.
class Table {
public:
    explicit Table(std::vector<std::string> columns);

    // Starts a new row. Cells are appended with add(); a row with fewer
    // cells than columns is padded with empty strings on output.
    Table& new_row();
    Table& add(const std::string& value);
    Table& add(std::int64_t value);
    Table& add(std::uint64_t value);
    Table& add(double value, int precision = 3);

    std::size_t row_count() const { return rows_.size(); }
    const std::vector<std::string>& row(std::size_t i) const { return rows_.at(i); }

    // Column-aligned ASCII rendering with a header rule.
    void print(std::ostream& os) const;

private:
    std::vector<std::string> columns_;
    std::vector<std::vector<std::string>> rows_;
};

}  // namespace dmst

#endif  // DMST_UTIL_TABLE_H
