#ifndef DMST_UTIL_CLI_H
#define DMST_UTIL_CLI_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dmst {

// Minimal --key=value flag parser for the bench and example binaries.
// Unknown flags throw, so typos in experiment scripts fail loudly.
class Args {
public:
    // Declares a flag with a default; call before parse().
    void define(const std::string& name, const std::string& default_value,
                const std::string& help);

    // Parses argv; accepts "--name=value" and "--name value".
    // Throws std::invalid_argument on unknown or malformed flags. A
    // "--help" anywhere prints the usage and help() to stdout and exits 0.
    void parse(int argc, const char* const* argv);

    std::string get(const std::string& name) const;
    std::int64_t get_int(const std::string& name) const;

    // One line per flag: name, default, help text.
    std::string help() const;

private:
    struct Flag {
        std::string value;
        std::string default_value;
        std::string help;
    };
    const Flag& flag(const std::string& name) const;

    std::map<std::string, Flag> flags_;
    std::vector<std::string> order_;
};

// Splits a comma-separated flag value ("er,grid,path") into its items,
// trimming surrounding whitespace and dropping empty entries.
std::vector<std::string> split_list(const std::string& value, char sep = ',');

// split_list + integer conversion; throws std::invalid_argument on a
// non-numeric item.
std::vector<std::int64_t> split_int_list(const std::string& value,
                                         char sep = ',');

}  // namespace dmst

#endif  // DMST_UTIL_CLI_H
