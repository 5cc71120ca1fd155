#include "exp/result_sink.hh"

#include <cstdlib>

namespace ibsim {
namespace exp {

namespace {

std::string
fmtDouble(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

/**
 * Canonical JSON number rendering: %.17g round-trips doubles exactly, so
 * two bit-identical runs produce byte-identical JSON lines.
 */
std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

MetricColumn
col(std::string metric, Stat stat, int precision, std::string header)
{
    MetricColumn c;
    c.metric = std::move(metric);
    c.stat = stat;
    c.precision = precision;
    c.header = std::move(header);
    return c;
}

double
statOf(const Accumulator& acc, Stat stat)
{
    switch (stat) {
    case Stat::Mean: return acc.mean();
    case Stat::Min: return acc.min();
    case Stat::Max: return acc.max();
    case Stat::Sum: return acc.sum();
    case Stat::Stddev: return acc.stddev();
    case Stat::Count: return static_cast<double>(acc.count());
    case Stat::PctMean: return 100.0 * acc.mean();
    case Stat::P95: return acc.percentile(95.0);
    }
    return 0.0;
}

const char*
statName(Stat stat)
{
    switch (stat) {
    case Stat::Mean: return "mean";
    case Stat::Min: return "min";
    case Stat::Max: return "max";
    case Stat::Sum: return "sum";
    case Stat::Stddev: return "stddev";
    case Stat::Count: return "count";
    case Stat::PctMean: return "pct";
    case Stat::P95: return "p95";
    }
    return "?";
}

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
requireWritable(const char* what, const std::string& path)
{
    if (path.empty())
        return;
    std::FILE* f = std::fopen(path.c_str(), "a");
    if (f == nullptr) {
        std::fprintf(stderr, "%s: cannot open '%s'\n", what, path.c_str());
        std::exit(2);
    }
    std::fclose(f);
}

ResultSink::ResultSink(Options options) : options_(std::move(options))
{
    jsonPath_ = options_.jsonPath;
    const char* jsonWhat = "--json";
    if (jsonPath_.empty()) {
        if (const char* env = std::getenv("IBSIM_JSON")) {
            jsonPath_ = env;
            jsonWhat = "IBSIM_JSON";
        }
    }
    csvPath_ = options_.csvPath;
    const char* csvWhat = "--csv";
    if (csvPath_.empty()) {
        if (const char* env = std::getenv("IBSIM_CSV")) {
            csvPath_ = env;
            csvWhat = "IBSIM_CSV";
        }
    }
    requireWritable(jsonWhat, jsonPath_);
    requireWritable(csvWhat, csvPath_);
}

void
ResultSink::printRow(const std::vector<std::string>& cells,
                     std::size_t width) const
{
    if (options_.quiet)
        return;
    for (const auto& c : cells)
        std::printf("%-*s", static_cast<int>(width), c.c_str());
    std::printf("\n");
}

void
ResultSink::appendCsv(const std::string& section,
                      const std::vector<std::string>& cells) const
{
    if (csvPath_.empty())
        return;
    std::FILE* f = std::fopen(csvPath_.c_str(), "a");
    if (!f)
        return;
    std::fprintf(f, "%s,%s", options_.benchName.c_str(), section.c_str());
    for (const auto& c : cells)
        std::fprintf(f, ",%s", c.c_str());
    std::fprintf(f, "\n");
    std::fclose(f);
}

void
ResultSink::writeJson(const std::string& section, const SweepResult& result)
{
    if (jsonPath_.empty())
        return;
    std::FILE* f = std::fopen(jsonPath_.c_str(), "a");
    if (!f)
        return;
    for (const CellStats& cell : result.cells) {
        std::string line = "{\"bench\":\"" +
                           jsonEscape(options_.benchName) +
                           "\",\"section\":\"" + jsonEscape(section) +
                           "\",\"cell\":" + std::to_string(cell.index()) +
                           ",\"trials\":" +
                           std::to_string(result.trialsPerCell) +
                           ",\"params\":{";
        bool first = true;
        for (const auto& [name, value] : cell.axes()) {
            if (!first)
                line += ',';
            first = false;
            line += '"' + jsonEscape(name) + "\":";
            if (value.numeric)
                line += jsonNumber(value.num);
            else
                line += '"' + jsonEscape(value.text) + '"';
        }
        line += "},\"metrics\":{";
        first = true;
        for (const auto& [name, acc] : cell.metrics()) {
            if (!first)
                line += ',';
            first = false;
            line += '"' + jsonEscape(name) + "\":{\"mean\":" +
                    jsonNumber(acc.mean()) + ",\"min\":" +
                    jsonNumber(acc.min()) + ",\"max\":" +
                    jsonNumber(acc.max()) + ",\"stddev\":" +
                    jsonNumber(acc.stddev()) + ",\"count\":" +
                    std::to_string(acc.count()) + '}';
        }
        line += "}}";
        std::fprintf(f, "%s\n", line.c_str());
    }
    std::fclose(f);
}

void
ResultSink::table(const std::string& section, const SweepResult& result,
                  const std::vector<MetricColumn>& columns)
{
    if (!options_.quiet && !section.empty())
        std::printf("== %s ==\n\n", section.c_str());

    std::vector<std::string> headers = result.axisNames;
    for (const auto& c : columns)
        headers.push_back(c.header.empty()
                              ? c.metric + '_' + statName(c.stat)
                              : c.header);
    printRow(headers, options_.columnWidth);
    if (!options_.quiet) {
        for (std::size_t i = 0; i < headers.size() * options_.columnWidth;
             ++i)
            std::printf("-");
        std::printf("\n");
    }
    appendCsv(section, headers);

    for (const CellStats& cell : result.cells) {
        std::vector<std::string> cells;
        cells.reserve(headers.size());
        for (const auto& [name, value] : cell.axes()) {
            (void)name;
            cells.push_back(value.text);
        }
        for (const auto& c : columns)
            cells.push_back(
                fmtDouble(statOf(cell.metric(c.metric), c.stat),
                          c.precision));
        printRow(cells, options_.columnWidth);
        appendCsv(section, cells);
    }
    if (!options_.quiet)
        std::printf("\n");

    writeJson(section, result);
}

void
ResultSink::pivot(const std::string& section, const SweepResult& result,
                  const std::string& row_axis, const std::string& col_axis,
                  const MetricColumn& metric)
{
    if (!options_.quiet && !section.empty())
        std::printf("== %s ==\n\n", section.c_str());

    // Collect the distinct values of both axes in first-seen order (the
    // grid is row-major, so this preserves the declared axis order).
    std::vector<std::string> rows;
    std::vector<std::string> cols;
    for (const CellStats& cell : result.cells) {
        const std::string& r = cell.str(row_axis);
        const std::string& c = cell.str(col_axis);
        bool seen = false;
        for (const auto& v : rows)
            seen = seen || v == r;
        if (!seen)
            rows.push_back(r);
        seen = false;
        for (const auto& v : cols)
            seen = seen || v == c;
        if (!seen)
            cols.push_back(c);
    }

    std::vector<std::string> headers{row_axis};
    const std::string base = metric.header.empty()
                                 ? metric.metric + '_' + statName(metric.stat)
                                 : metric.header;
    for (const auto& c : cols)
        headers.push_back(col_axis + '=' + c);
    if (!options_.quiet)
        std::printf("(%s)\n", base.c_str());
    printRow(headers, options_.columnWidth);
    if (!options_.quiet) {
        for (std::size_t i = 0; i < headers.size() * options_.columnWidth;
             ++i)
            std::printf("-");
        std::printf("\n");
    }
    appendCsv(section, headers);

    for (const auto& r : rows) {
        std::vector<std::string> line{r};
        for (const auto& c : cols) {
            for (const CellStats& cell : result.cells) {
                if (cell.str(row_axis) == r && cell.str(col_axis) == c) {
                    line.push_back(
                        fmtDouble(statOf(cell.metric(metric.metric),
                                         metric.stat),
                                  metric.precision));
                    break;
                }
            }
        }
        printRow(line, options_.columnWidth);
        appendCsv(section, line);
    }
    if (!options_.quiet)
        std::printf("\n");

    writeJson(section, result);
}

void
ResultSink::note(const std::string& text)
{
    if (!options_.quiet)
        std::printf("%s\n", text.c_str());
}

void
ResultSink::blank()
{
    if (!options_.quiet)
        std::printf("\n");
}

void
ResultSink::jsonOnly(const std::string& section, const SweepResult& result)
{
    writeJson(section, result);
}

} // namespace exp
} // namespace ibsim
