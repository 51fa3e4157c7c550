#include "util/flags.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>

#include "util/logging.hh"

namespace longsight {

namespace {

/** The whole of s as a base-10 integer, or nothing. */
std::optional<int64_t>
parseInteger(const std::string &s)
{
    char *end = nullptr;
    const int64_t v = std::strtoll(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0')
        return std::nullopt;
    return v;
}

/** The range half of getCount, shared with getCountList's entries. */
uint64_t
checkCount(const std::string &name, int64_t v, uint64_t min, uint64_t max)
{
    if (v < 0 || static_cast<uint64_t>(v) < min)
        fatal("flag --", name, " must be at least ", min, ", got ", v);
    if (static_cast<uint64_t>(v) > max)
        fatal("flag --", name, " must be at most ", max, ", got ", v);
    return static_cast<uint64_t>(v);
}

} // namespace

Flags::Flags(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        arg = arg.substr(2);
        const size_t eq = arg.find('=');
        if (eq != std::string::npos) {
            values_[arg.substr(0, eq)] = arg.substr(eq + 1);
        } else if (i + 1 < argc &&
                   std::string(argv[i + 1]).rfind("--", 0) != 0) {
            values_[arg] = argv[++i];
        } else {
            values_[arg] = ""; // bare switch
        }
    }
}

std::string
Flags::getString(const std::string &name, const std::string &def) const
{
    consumed_.insert(name);
    auto it = values_.find(name);
    return it == values_.end() ? def : it->second;
}

int64_t
Flags::getInt(const std::string &name, int64_t def) const
{
    consumed_.insert(name);
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    const std::optional<int64_t> v = parseInteger(it->second);
    if (!v)
        fatal("flag --", name, " expects an integer, got '", it->second,
              "'");
    return *v;
}

uint64_t
Flags::getCount(const std::string &name, uint64_t def, uint64_t min,
                uint64_t max) const
{
    return checkCount(name, getInt(name, static_cast<int64_t>(def)), min,
                      max);
}

std::vector<uint64_t>
Flags::getCountList(const std::string &name, const std::string &def,
                    uint64_t min, uint64_t max) const
{
    const std::string csv = getString(name, def);
    std::vector<uint64_t> out;
    size_t at = 0;
    while (at <= csv.size()) {
        const size_t comma = std::min(csv.find(',', at), csv.size());
        const std::string item = csv.substr(at, comma - at);
        at = comma + 1;
        if (item.empty())
            continue;
        const std::optional<int64_t> v = parseInteger(item);
        if (!v)
            fatal("flag --", name, " expects a comma-separated list of ",
                  "integers, got '", csv, "'");
        out.push_back(checkCount(name, *v, min, max));
    }
    if (out.empty())
        fatal("flag --", name, " expects at least one entry, got '", csv,
              "'");
    return out;
}

double
Flags::getDouble(const std::string &name, double def) const
{
    consumed_.insert(name);
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    char *end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
        fatal("flag --", name, " expects a number, got '", it->second,
              "'");
    return v;
}

double
Flags::getPositive(const std::string &name, double def) const
{
    const double v = getDouble(name, def);
    if (!std::isfinite(v) || v <= 0.0)
        fatal("flag --", name, " must be a positive finite number, got ",
              v);
    return v;
}

bool
Flags::getBool(const std::string &name, bool def) const
{
    consumed_.insert(name);
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    const std::string &v = it->second;
    if (v.empty() || v == "true" || v == "1")
        return true;
    if (v == "false" || v == "0")
        return false;
    fatal("flag --", name, " expects a boolean, got '", v, "'");
}

std::vector<std::string>
Flags::unconsumed() const
{
    std::vector<std::string> out;
    for (const auto &[name, value] : values_) {
        (void)value;
        if (!consumed_.count(name))
            out.push_back(name);
    }
    return out;
}

void
Flags::rejectUnconsumed() const
{
    const std::vector<std::string> leftover = unconsumed();
    if (!leftover.empty())
        fatal("unknown flag --", leftover.front());
}

} // namespace longsight
