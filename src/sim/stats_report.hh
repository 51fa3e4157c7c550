/**
 * @file
 * Uniform statistics reporting across simulator components — the
 * gem5-style "stats dump" for this framework. Components keep their
 * own typed stat structs; this module renders them into one
 * TextTable so tools (the CLI, examples) can show a consistent
 * end-of-run report.
 */

#ifndef LONGSIGHT_SIM_STATS_REPORT_HH
#define LONGSIGHT_SIM_STATS_REPORT_HH

#include <string>

#include "util/table.hh"

namespace longsight {

class DramPackage;
class DrexDevice;

/**
 * Accumulates component statistics into one named table.
 */
class StatsReport
{
  public:
    explicit StatsReport(const std::string &title);

    /** Aggregate of a whole package. */
    void addPackage(const std::string &name, const DramPackage &pkg);

    /** All packages of a device. */
    void addDevice(const std::string &name, DrexDevice &dev);

    /** Rendered table (also printable directly). */
    const TextTable &table() const { return table_; }
    void print(std::ostream &os) const { table_.print(os); }

    size_t entries() const { return table_.rowCount(); }

  private:
    TextTable table_;
};

} // namespace longsight

#endif // LONGSIGHT_SIM_STATS_REPORT_HH
