/**
 * @file
 * Wall-clock telemetry helper shared by the pool's dies and scheduler:
 * steady-clock deltas in milliseconds.
 */
#ifndef FLOWGNN_CORE_TELEMETRY_H
#define FLOWGNN_CORE_TELEMETRY_H

#include <chrono>

namespace flowgnn {

/** Milliseconds from `a` to `b`. */
inline double
ms_between(std::chrono::steady_clock::time_point a,
           std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

} // namespace flowgnn

#endif // FLOWGNN_CORE_TELEMETRY_H
