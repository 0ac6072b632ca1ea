#include "bench.h"

#include <atomic>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "tensor/linear.h"
#include "tensor/rng.h"

namespace perfbench {

MemoryKb
read_memory()
{
    MemoryKb m;
    std::ifstream is("/proc/self/status");
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::string key;
        long kb = 0;
        ls >> key >> kb;
        if (key == "VmRSS:")
            m.rss = kb;
        else if (key == "VmHWM:")
            m.hwm = kb;
    }
    return m;
}

void
parallel_for(std::size_t n, unsigned threads,
             const std::function<void(std::size_t)> &fn)
{
    std::atomic<std::size_t> next{0};
    std::exception_ptr error;
    std::mutex error_mutex;
    auto worker = [&] {
        try {
            for (std::size_t i = next++; i < n; i = next++)
                fn(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(error_mutex);
            if (!error)
                error = std::current_exception();
            next = n;
        }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < std::max(1u, threads); ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

double
linear_gmacs(std::size_t dim, double seconds)
{
    flowgnn::Rng rng(dim);
    flowgnn::Linear layer(dim, dim);
    layer.init_glorot(rng);
    flowgnn::Vec x(dim);
    for (float &v : x)
        v = static_cast<float>(rng.normal());
    double sink = 0.0;
    std::size_t calls = 0;
    const Clock::time_point t0 = Clock::now();
    double elapsed = 0.0;
    while (elapsed < seconds) {
        for (int i = 0; i < 256; ++i)
            sink += layer.forward(x)[i % dim];
        calls += 256;
        elapsed = seconds_since(t0);
    }
    if (!std::isfinite(sink))
        std::fprintf(stderr, "linear probe: non-finite output\n");
    return static_cast<double>(calls) * static_cast<double>(dim * dim) /
           elapsed / 1e9;
}

const char *
model_key(flowgnn::ModelKind kind)
{
    using flowgnn::ModelKind;
    switch (kind) {
      case ModelKind::kGin: return "gin";
      case ModelKind::kGinVn: return "gin_vn";
      case ModelKind::kGcn: return "gcn";
      case ModelKind::kGat: return "gat";
      case ModelKind::kPna: return "pna";
      case ModelKind::kDgn: return "dgn";
      default: return flowgnn::model_name(kind);
    }
}

namespace {

double
mean_utilization(const std::vector<flowgnn::UnitStats> &units)
{
    if (units.empty())
        return 0.0;
    double sum = 0.0;
    for (const flowgnn::UnitStats &u : units)
        sum += u.utilization();
    return sum / static_cast<double>(units.size());
}

} // namespace

void
CoreMeans::add(const flowgnn::RunStats &stats)
{
    ++runs;
    nt_util += mean_utilization(stats.nt_units);
    mp_util += mean_utilization(stats.mp_units);
    adapter_stall_cycles += static_cast<double>(stats.adapter_stall_cycles);
    mp_imbalance += stats.observed_mp_imbalance();
}

void
CoreMeans::report(Results &out) const
{
    const double n = runs ? static_cast<double>(runs) : 1.0;
    out.set("core.nt_util", nt_util / n, "fraction");
    out.set("core.mp_util", mp_util / n, "fraction");
    out.set("core.adapter_stall_cycles", adapter_stall_cycles / n,
            "cycles");
    out.set("core.mp_imbalance", mp_imbalance / n, "fraction");
}

void
print_latency_line(const char *label, const std::vector<double> &ms)
{
    const double q = highest_resolved_percentile(ms.size());
    std::printf("  %-28s n=%zu p50=%.3f ms p99=%.3f ms max=%.3f ms "
                "(highest percentile with >=10 samples beyond: p%g)\n",
                label, ms.size(), percentile(ms, 0.5),
                percentile(ms, 0.99), percentile(ms, 1.0), q * 100.0);
}

} // namespace perfbench
