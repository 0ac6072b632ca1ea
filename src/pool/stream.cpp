#include "pool/stream.h"

#include <algorithm>
#include <deque>
#include <future>

namespace flowgnn {

StreamRunStats
StreamRunner::run(SampleStream &stream, std::size_t count) const
{
    StreamRunStats out;
    out.graphs = count;
    if (count == 0)
        return out;

    pool_.start(); // a paused pool would never consume the queue

    // Two-stage pipeline timeline: the DMA engine loads graphs
    // back-to-back; the kernel starts graph i once both its load and
    // graph i-1's compute are finished.
    std::uint64_t load_done = 0;
    std::uint64_t compute_done = 0;
    double latency_sum = 0.0;
    double prediction_sum = 0.0;

    auto consume = [&](std::future<RunResult> future) {
        RunResult r = future.get();
        std::uint64_t load = r.stats.load_cycles;
        std::uint64_t compute = r.stats.total_cycles - load;

        load_done += load; // DMA is serialized across graphs
        std::uint64_t start = std::max(load_done, compute_done);
        compute_done = start + compute;

        out.sequential_cycles += r.stats.total_cycles;
        latency_sum += static_cast<double>(r.stats.total_cycles);
        prediction_sum += static_cast<double>(r.prediction);
    };

    // Keep at most queue_capacity requests outstanding: submission
    // then never finds the pending queue full, so the runner works
    // under either admission policy (and never materializes `count` futures
    // for a long stream). Results are consumed in submission order,
    // which is what the timeline reconstruction needs.
    const std::size_t max_inflight =
        std::max<std::size_t>(1, pool_.queue_capacity());
    std::deque<std::future<RunResult>> inflight;
    for (std::size_t i = 0; i < count; ++i) {
        if (inflight.size() >= max_inflight) {
            consume(std::move(inflight.front()));
            inflight.pop_front();
        }
        inflight.push_back(pool_.submit(stream.next()));
    }
    while (!inflight.empty()) {
        consume(std::move(inflight.front()));
        inflight.pop_front();
    }

    out.pipelined_cycles = compute_done;
    out.avg_latency_cycles = latency_sum / static_cast<double>(count);
    out.avg_prediction = prediction_sum / static_cast<double>(count);
    return out;
}

} // namespace flowgnn
