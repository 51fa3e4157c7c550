/**
 * @file
 * Plain-text table rendering for benchmark output. Every figure/table
 * reproduction bench prints its rows through TextTable so the output
 * format is uniform and diffable.
 */

#ifndef LONGSIGHT_UTIL_TABLE_HH
#define LONGSIGHT_UTIL_TABLE_HH

#include <iosfwd>
#include <string>
#include <vector>

namespace longsight {

/**
 * A column-aligned text table with a title and header row.
 */
class TextTable
{
  public:
    explicit TextTable(std::string title);

    /** Set the header row; column count is fixed from here on. */
    void setHeader(std::vector<std::string> header);

    /** Append a data row; must match the header column count. */
    void addRow(std::vector<std::string> row);

    /** Convenience: format a double with the given precision. */
    static std::string num(double v, int precision = 2);

    /** Render with padding and separators to the stream. */
    void print(std::ostream &os) const;

    size_t rowCount() const { return rows_.size(); }

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace longsight

#endif // LONGSIGHT_UTIL_TABLE_HH
