/**
 * @file
 * Text table and CSV rendering for bench output.
 *
 * Every experiment prints the same rows/series as the paper's figure it
 * regenerates, as a fixed-width table (human) and optionally CSV
 * (machine).
 */

#ifndef CELLBW_STATS_TABLE_HH
#define CELLBW_STATS_TABLE_HH

#include <string>
#include <vector>

namespace cellbw::stats
{

class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Append a row; must have as many cells as there are headers. */
    void addRow(std::vector<std::string> cells);

    /** Convenience: format a double with @p digits decimals. */
    static std::string num(double v, int digits = 2);

    std::size_t rowCount() const { return rows_.size(); }
    std::size_t columnCount() const { return headers_.size(); }

    /** @name Cell access for structured exporters (e.g. JSON). */
    /** @{ */
    const std::vector<std::string> &headers() const { return headers_; }
    const std::vector<std::vector<std::string>> &rows() const
    {
        return rows_;
    }
    /** @} */

    /** Fixed-width rendering with a header separator line. */
    std::string render() const;

    /** RFC-4180-ish CSV (cells containing commas/quotes are quoted). */
    std::string renderCsv() const;

  private:
    static std::string csvEscape(const std::string &s);

    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace cellbw::stats

#endif // CELLBW_STATS_TABLE_HH
