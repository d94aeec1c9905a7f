#ifndef DMST_TESTS_EXPECT_COUNTERS_H
#define DMST_TESTS_EXPECT_COUNTERS_H

// Test support: comparisons over the one counter list, RunStats::fields.
// A counter added to the list is compared everywhere these are used.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "dmst/congest/network_base.h"
#include "dmst/obs/export.h"

namespace dmst {

struct ListedCounter {
    std::string key;
    std::uint64_t value = 0;  // bools as 0/1
    CounterGroup group = CounterGroup::Every;
};

// Every counter RunStats::fields lists, in list order.
inline std::vector<ListedCounter> listed_counters(const RunStats& s)
{
    std::vector<ListedCounter> out;
    s.fields([&](const char* key, auto value, CounterGroup group) {
        out.push_back({key, static_cast<std::uint64_t>(value), group});
    });
    return out;
}

// Expects a and b to agree on every listed counter except those named in
// `skip`; a mismatch names the counter and `where`.
inline void expect_same_counters(const RunStats& a, const RunStats& b,
                                 const std::string& where,
                                 std::initializer_list<std::string_view> skip =
                                     {})
{
    const auto x = listed_counters(a);
    const auto y = listed_counters(b);
    for (std::size_t i = 0; i < x.size(); ++i) {
        if (std::find(skip.begin(), skip.end(), x[i].key) != skip.end())
            continue;
        EXPECT_EQ(x[i].value, y[i].value) << where << ": " << x[i].key;
    }
}

// Expects the Chrome trace of `stats` (its trace must be set) to carry
// exactly the listed counters in its dmst_totals event, each with the
// run's value.
inline void expect_exported_totals(const RunStats& stats,
                                   const std::string& where)
{
    std::ostringstream buf;
    write_chrome_trace(buf, stats);
    const std::string out = buf.str();
    const std::string marker = "\"dmst_totals\",\"args\":{";
    const std::size_t begin = out.find(marker);
    ASSERT_NE(begin, std::string::npos) << where;
    const std::size_t from = begin + marker.size();
    const std::string args = out.substr(from, out.find('}', from) - from);
    const auto listed = listed_counters(stats);
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(args.begin(), args.end(), ',') + 1),
              listed.size())
        << where << ": " << args;
    for (const ListedCounter& c : listed) {
        const std::string key = "\"" + c.key + "\":";
        const std::size_t at = args.find(key);
        ASSERT_NE(at, std::string::npos) << where << ": " << c.key;
        const std::size_t v = at + key.size();
        const std::string value = args.substr(v, args.find(',', v) - v);
        const std::uint64_t parsed =
            value == "true" ? 1 : value == "false" ? 0 : std::stoull(value);
        EXPECT_EQ(parsed, c.value) << where << ": " << c.key;
    }
}

}  // namespace dmst

#endif  // DMST_TESTS_EXPECT_COUNTERS_H
