/**
 * @file
 * Declarative parameter sweeps: named axes expanded to a cartesian grid.
 *
 * A Sweep is a list of named axes, each holding numeric or string values.
 * cells() expands them row-major (the last axis varies fastest) into Cell
 * objects that a trial function reads by axis name. Every cell carries a
 * stable index, which is what SeedStream keys its disjoint seed streams
 * on — so adding an axis value changes seeds predictably instead of
 * overlapping neighbouring cells.
 */

#ifndef IBSIM_EXP_SWEEP_HH
#define IBSIM_EXP_SWEEP_HH

#include <cstddef>
#include <string>
#include <vector>

namespace ibsim {
namespace exp {

/** One axis value: numeric with a rendering, or a plain string. */
struct AxisValue
{
    double num = 0.0;
    std::string text;
    bool numeric = false;

    static AxisValue number(double v, int precision = -1);
    static AxisValue label(std::string s);
};

/** One named axis of a sweep. */
struct Axis
{
    std::string name;
    std::vector<AxisValue> values;
};

class Sweep;

/** One point of the expanded grid. */
class Cell
{
  public:
    Cell(const Sweep* sweep, std::size_t index,
         std::vector<std::size_t> value_indices);

    /** Flat cell index in the grid (row-major). */
    std::size_t index() const { return index_; }

    /** Numeric value of axis @p axis (throws if the axis is not numeric). */
    double num(const std::string& axis) const;

    /** Rendered value of axis @p axis (works for both kinds). */
    const std::string& str(const std::string& axis) const;

    /** Index of this cell's value along axis @p axis. */
    std::size_t valueIndex(const std::string& axis) const;

    /** "axis=value axis=value ..." for messages. */
    std::string label() const;

    const Sweep& sweep() const { return *sweep_; }

  private:
    const AxisValue& value(const std::string& axis) const;

    const Sweep* sweep_;
    std::size_t index_;
    std::vector<std::size_t> valueIndices_;  // parallel to sweep axes
};

/**
 * Builder for a cartesian parameter grid.
 */
class Sweep
{
  public:
    Sweep() = default;

    /** Add a numeric axis. @p precision controls the rendered form. */
    Sweep& axis(std::string name, std::vector<double> values,
                int precision = -1);

    /** Add a string axis. */
    Sweep& axis(std::string name, std::vector<std::string> values);

    /** Add a pre-built axis. */
    Sweep& axis(Axis a);

    /** Inclusive numeric range lo..hi in the given step. */
    static std::vector<double> range(double lo, double hi, double step);

    const std::vector<Axis>& axes() const { return axes_; }
    std::size_t axisIndex(const std::string& name) const;

    /** Number of grid cells (product of axis sizes; 1 when empty). */
    std::size_t cellCount() const;

    /** Expand the grid, row-major, last axis fastest. */
    std::vector<Cell> cells() const;

  private:
    std::vector<Axis> axes_;
};

} // namespace exp
} // namespace ibsim

#endif // IBSIM_EXP_SWEEP_HH
