#include "util/table.hh"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/logging.hh"

namespace longsight {

TextTable::TextTable(std::string title) : title_(std::move(title))
{
}

void
TextTable::setHeader(std::vector<std::string> header)
{
    LS_ASSERT(!header.empty(), "table header must not be empty");
    header_ = std::move(header);
}

void
TextTable::addRow(std::vector<std::string> row)
{
    LS_ASSERT(row.size() == header_.size(),
              "row width ", row.size(), " != header width ", header_.size());
    rows_.push_back(std::move(row));
}

std::string
TextTable::num(double v, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<size_t> widths(header_.size(), 0);
    for (size_t c = 0; c < header_.size(); ++c)
        widths[c] = header_[c].size();
    for (const auto &row : rows_)
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    size_t total = 0;
    for (size_t w : widths)
        total += w + 2;

    os << "== " << title_ << " ==\n";
    auto emitRow = [&](const std::vector<std::string> &row) {
        for (size_t c = 0; c < row.size(); ++c)
            os << std::left << std::setw(static_cast<int>(widths[c]) + 2)
               << row[c];
        os << "\n";
    };
    emitRow(header_);
    os << std::string(total, '-') << "\n";
    for (const auto &row : rows_)
        emitRow(row);
    os << "\n";
}

} // namespace longsight
