#include "exp/sweep.hh"

#include <cstdio>
#include <stdexcept>

namespace ibsim {
namespace exp {

namespace {

std::string
renderNumber(double v, int precision)
{
    char buf[64];
    if (precision >= 0) {
        std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    } else {
        // Shortest form that still reads as the value: %g.
        std::snprintf(buf, sizeof(buf), "%g", v);
    }
    return buf;
}

} // namespace

AxisValue
AxisValue::number(double v, int precision)
{
    AxisValue a;
    a.num = v;
    a.text = renderNumber(v, precision);
    a.numeric = true;
    return a;
}

AxisValue
AxisValue::label(std::string s)
{
    AxisValue a;
    a.text = std::move(s);
    a.numeric = false;
    return a;
}

Cell::Cell(const Sweep* sweep, std::size_t index,
           std::vector<std::size_t> value_indices)
    : sweep_(sweep), index_(index), valueIndices_(std::move(value_indices))
{}

const AxisValue&
Cell::value(const std::string& axis) const
{
    const std::size_t i = sweep_->axisIndex(axis);
    return sweep_->axes()[i].values[valueIndices_[i]];
}

double
Cell::num(const std::string& axis) const
{
    const AxisValue& v = value(axis);
    if (!v.numeric)
        throw std::logic_error("sweep axis '" + axis + "' is not numeric");
    return v.num;
}

const std::string&
Cell::str(const std::string& axis) const
{
    return value(axis).text;
}

std::size_t
Cell::valueIndex(const std::string& axis) const
{
    return valueIndices_[sweep_->axisIndex(axis)];
}

std::string
Cell::label() const
{
    std::string out;
    for (std::size_t i = 0; i < sweep_->axes().size(); ++i) {
        if (!out.empty())
            out += ' ';
        out += sweep_->axes()[i].name + '=' +
               sweep_->axes()[i].values[valueIndices_[i]].text;
    }
    return out;
}

Sweep&
Sweep::axis(std::string name, std::vector<double> values, int precision)
{
    Axis a;
    a.name = std::move(name);
    a.values.reserve(values.size());
    for (double v : values)
        a.values.push_back(AxisValue::number(v, precision));
    return axis(std::move(a));
}

Sweep&
Sweep::axis(std::string name, std::vector<std::string> values)
{
    Axis a;
    a.name = std::move(name);
    a.values.reserve(values.size());
    for (auto& v : values)
        a.values.push_back(AxisValue::label(std::move(v)));
    return axis(std::move(a));
}

Sweep&
Sweep::axis(Axis a)
{
    if (a.values.empty())
        throw std::logic_error("sweep axis '" + a.name + "' is empty");
    axes_.push_back(std::move(a));
    return *this;
}

std::vector<double>
Sweep::range(double lo, double hi, double step)
{
    std::vector<double> out;
    // A half-step epsilon keeps the classic `<= 6.01` inclusive endpoints
    // without accumulating float drift into an extra cell.
    for (double v = lo; v <= hi + step * 0.5; v += step)
        out.push_back(v);
    return out;
}

std::size_t
Sweep::axisIndex(const std::string& name) const
{
    for (std::size_t i = 0; i < axes_.size(); ++i) {
        if (axes_[i].name == name)
            return i;
    }
    throw std::logic_error("no sweep axis named '" + name + "'");
}

std::size_t
Sweep::cellCount() const
{
    std::size_t n = 1;
    for (const auto& a : axes_)
        n *= a.values.size();
    return n;
}

std::vector<Cell>
Sweep::cells() const
{
    const std::size_t count = cellCount();
    std::vector<Cell> out;
    out.reserve(count);
    std::vector<std::size_t> idx(axes_.size(), 0);
    for (std::size_t flat = 0; flat < count; ++flat) {
        out.emplace_back(this, flat, idx);
        // Row-major increment: last axis fastest.
        for (std::size_t a = axes_.size(); a-- > 0;) {
            if (++idx[a] < axes_[a].values.size())
                break;
            idx[a] = 0;
        }
    }
    return out;
}

} // namespace exp
} // namespace ibsim
