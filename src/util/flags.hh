/**
 * @file
 * Minimal command-line flag parsing for the CLI driver and tools:
 * `--name=value`, `--name value`, bare `--switch`, and positional
 * arguments. Unknown flags are an error surfaced to the caller so
 * typos don't silently fall back to defaults.
 */

#ifndef LONGSIGHT_UTIL_FLAGS_HH
#define LONGSIGHT_UTIL_FLAGS_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace longsight {

/**
 * Parsed command line.
 */
class Flags
{
  public:
    Flags(int argc, const char *const *argv);

    /** Positional (non-flag) arguments in order. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /** Typed getters with defaults; fatal() on unparsable values. */
    std::string getString(const std::string &name,
                          const std::string &def) const;
    int64_t getInt(const std::string &name, int64_t def) const;

    /**
     * A count flag (sizes, lengths, thread counts): getInt that
     * fatal()s, naming the flag and its value, when the value is below
     * `min` or above `max`, so a negative count never wraps into a
     * huge unsigned one and a bounded resource (threads) is never
     * asked for more than its cap.
     */
    uint64_t getCount(const std::string &name, uint64_t def,
                      uint64_t min = 0,
                      uint64_t max = UINT64_MAX) const;

    double getDouble(const std::string &name, double def) const;

    /**
     * A positive real flag (rates, latency limits): getDouble that
     * fatal()s, naming the flag and its value, unless the value is
     * finite and above zero.
     */
    double getPositive(const std::string &name, double def) const;

    /**
     * A comma-separated list of counts ("1,2,4"): every entry passes
     * getCount's range check, and an empty list or an entry that is not
     * an integer fatal()s, naming the flag.
     */
    std::vector<uint64_t> getCountList(const std::string &name,
                                       const std::string &def,
                                       uint64_t min = 0,
                                       uint64_t max = UINT64_MAX) const;

    bool getBool(const std::string &name, bool def = false) const;

    /**
     * Flags present on the command line that were never queried;
     * call last to reject typos.
     */
    std::vector<std::string> unconsumed() const;

    /** fatal() naming the first unqueried flag, if any; call last. */
    void rejectUnconsumed() const;

  private:
    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
    mutable std::set<std::string> consumed_;
};

} // namespace longsight

#endif // LONGSIGHT_UTIL_FLAGS_HH
