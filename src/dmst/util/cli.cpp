#include "dmst/util/cli.h"

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace dmst {

void Args::define(const std::string& name, const std::string& default_value,
                  const std::string& help)
{
    if (flags_.count(name))
        throw std::invalid_argument("flag defined twice: " + name);
    flags_[name] = Flag{default_value, default_value, help};
    order_.push_back(name);
}

void Args::parse(int argc, const char* const* argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0) {
            std::cout << "usage: " << argv[0] << " [--flag=value ...]\n"
                      << help() << std::flush;
            std::exit(0);
        }
    }
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            throw std::invalid_argument("expected --flag, got: " + arg);
        arg = arg.substr(2);
        std::string name;
        std::string value;
        auto eq = arg.find('=');
        if (eq != std::string::npos) {
            name = arg.substr(0, eq);
            value = arg.substr(eq + 1);
        } else {
            name = arg;
            if (i + 1 >= argc)
                throw std::invalid_argument("flag --" + name + " needs a value");
            value = argv[++i];
        }
        auto it = flags_.find(name);
        if (it == flags_.end())
            throw std::invalid_argument("unknown flag: --" + name);
        it->second.value = value;
    }
}

const Args::Flag& Args::flag(const std::string& name) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        throw std::invalid_argument("flag not defined: " + name);
    return it->second;
}

std::string Args::get(const std::string& name) const
{
    return flag(name).value;
}

std::int64_t Args::get_int(const std::string& name) const
{
    const std::string& v = flag(name).value;
    std::size_t pos = 0;
    std::int64_t result = std::stoll(v, &pos);
    if (pos != v.size())
        throw std::invalid_argument("flag --" + name + " is not an integer: " + v);
    return result;
}

std::string Args::help() const
{
    std::ostringstream os;
    for (const auto& name : order_) {
        const Flag& f = flags_.at(name);
        os << "  --" << name << " (default: " << f.default_value << ")  " << f.help
           << "\n";
    }
    return os.str();
}

std::vector<std::string> split_list(const std::string& value, char sep)
{
    std::vector<std::string> items;
    std::string item;
    std::istringstream iss(value);
    while (std::getline(iss, item, sep)) {
        auto first = item.find_first_not_of(" \t");
        if (first == std::string::npos)
            continue;
        auto last = item.find_last_not_of(" \t");
        items.push_back(item.substr(first, last - first + 1));
    }
    return items;
}

std::vector<std::int64_t> split_int_list(const std::string& value, char sep)
{
    std::vector<std::int64_t> items;
    for (const std::string& item : split_list(value, sep)) {
        std::size_t used = 0;
        std::int64_t parsed = 0;
        try {
            parsed = std::stoll(item, &used);
        } catch (const std::exception&) {
            used = 0;
        }
        if (used != item.size())
            throw std::invalid_argument("expected integer list item, got: " +
                                        item);
        items.push_back(parsed);
    }
    return items;
}

}  // namespace dmst
