#include "tensor/fixed_point.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace flowgnn {

double
FixedPointFormat::ulp() const
{
    return std::ldexp(1.0, -frac_bits);
}

double
FixedPointFormat::max_value() const
{
    return std::ldexp(1.0, int_bits() - 1) - ulp();
}

double
FixedPointFormat::min_value() const
{
    return -std::ldexp(1.0, int_bits() - 1);
}

bool
FixedPointFormat::valid() const
{
    return total_bits >= 2 && total_bits <= 32 && frac_bits >= 0 &&
           frac_bits < total_bits;
}

const char *
FixedPointFormat::name_into(char *buffer, std::size_t size) const
{
    std::snprintf(buffer, size, "Q%d.%d", total_bits, frac_bits);
    return buffer;
}

namespace {

/** Round to the nearest multiple of `ulp`, saturate to [lo, hi]. */
float
quantize_to(float value, double ulp, double lo, double hi)
{
    double scaled = static_cast<double>(value) / ulp;
    double rounded = std::nearbyint(scaled) * ulp;
    return static_cast<float>(std::clamp(rounded, lo, hi));
}

} // namespace

float
quantize(float value, const FixedPointFormat &format)
{
    return quantize_to(value, format.ulp(), format.min_value(),
                       format.max_value());
}

void
quantize_inplace(Vec &values, const FixedPointFormat &format)
{
    quantize_inplace(values.data(), values.size(), format);
}

void
quantize_inplace(float *values, std::size_t count,
                 const FixedPointFormat &format)
{
    // The format's constants once per buffer rather than per value:
    // the same doubles, so the same bits.
    const double ulp = format.ulp();
    const double lo = format.min_value();
    const double hi = format.max_value();
    for (std::size_t i = 0; i < count; ++i)
        values[i] = quantize_to(values[i], ulp, lo, hi);
}

} // namespace flowgnn
