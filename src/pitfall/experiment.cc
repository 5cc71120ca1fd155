#include "pitfall/experiment.hh"

#include <cstdio>
#include <cstdlib>

#include "exp/result_sink.hh"

namespace ibsim {
namespace pitfall {

Accumulator
runTrials(std::size_t trials,
          const std::function<double(std::uint64_t)>& fn,
          std::uint64_t seed_base)
{
    Accumulator acc;
    for (std::size_t i = 0; i < trials; ++i)
        acc.add(fn(seed_base + i + 1));
    return acc;
}

double
probabilityPercent(std::size_t trials,
                   const std::function<bool(std::uint64_t)>& fn,
                   std::uint64_t seed_base)
{
    std::size_t hits = 0;
    for (std::size_t i = 0; i < trials; ++i) {
        if (fn(seed_base + i + 1))
            ++hits;
    }
    return 100.0 * static_cast<double>(hits) /
           static_cast<double>(trials);
}

TablePrinter::TablePrinter(std::vector<std::string> headers,
                           std::size_t column_width)
    : headers_(std::move(headers)), width_(column_width)
{
    if (const char* path = std::getenv("IBSIM_CSV"))
        csvPath_ = path;
    exp::requireWritable("IBSIM_CSV", csvPath_);
}

void
TablePrinter::appendCsv(const std::vector<std::string>& cells) const
{
    if (csvPath_.empty())
        return;
    std::FILE* f = std::fopen(csvPath_.c_str(), "a");
    if (!f)
        return;
    for (std::size_t i = 0; i < cells.size(); ++i)
        std::fprintf(f, "%s%s", cells[i].c_str(),
                     i + 1 < cells.size() ? "," : "\n");
    std::fclose(f);
}

void
TablePrinter::printHeader() const
{
    for (const auto& h : headers_)
        std::printf("%-*s", static_cast<int>(width_), h.c_str());
    std::printf("\n");
    for (std::size_t i = 0; i < headers_.size() * width_; ++i)
        std::printf("-");
    std::printf("\n");
    appendCsv(headers_);
}

void
TablePrinter::printRow(const std::vector<std::string>& cells) const
{
    for (const auto& c : cells)
        std::printf("%-*s", static_cast<int>(width_), c.c_str());
    std::printf("\n");
    appendCsv(cells);
}

std::string
TablePrinter::fmt(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
TablePrinter::fmt(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace pitfall
} // namespace ibsim
