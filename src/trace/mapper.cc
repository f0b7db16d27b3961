#include "trace/mapper.hh"

#include <algorithm>
#include <cmath>
#include <map>

namespace quasar::trace
{

using churn::ChurnClass;

namespace
{

/** @name Classification thresholds (see the mapper.hh file comment) */
/// @{
constexpr int kServicePriorityMin = 9;
constexpr int kServiceSchedClassMin = 3;
constexpr int kBestEffortPriorityMax = 1;
constexpr double kAnalyticsCpuMin = 0.35;
/// @}

/** Lifetimes shorter than this after rescale are clamped up, so
 *  micro-tasks do not arrive-and-die within one tick. */
constexpr double kMinLifetimeS = 1.0;

/** An instance reconstructed from arrival/departure pairing, still
 *  on the source clock. */
struct RawInstance
{
    uint64_t id = 0;
    double arrival = 0.0;
    double depart = -1.0; ///< < 0: never closed in the trace.
    double cpu = 0.0;
    double memory = 0.0;
    int priority = 0;
    int sched_class = 0;
    bool phase_change = false;
};

/** Deterministic uniform in [0, 1) from (id, clone, salt). */
double
hash01(uint64_t id, uint64_t clone, uint64_t salt)
{
    uint64_t x = id;
    x ^= clone * 0x9E3779B97F4A7C15ULL;
    x ^= salt * 0xBF58476D1CE4E5B9ULL;
    // splitmix64 finalizer: full avalanche so nearby ids decorrelate.
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return double(x >> 11) * 0x1.0p-53;
}

ChurnClass
classify(const RawInstance &r)
{
    if (r.priority >= kServicePriorityMin ||
        r.sched_class >= kServiceSchedClassMin)
        return ChurnClass::Service;
    if (r.priority <= kBestEffortPriorityMax)
        return ChurnClass::BestEffort;
    if (r.cpu >= kAnalyticsCpuMin)
        return ChurnClass::Analytics;
    return ChurnClass::SingleNode;
}

/** Peak concurrent normalized CPU demand (machine-equivalents). */
double
peakConcurrentCpu(const std::vector<RawInstance> &raw, double end_s)
{
    // +cpu at arrival, -cpu at close (or trace end when open-ended),
    // swept in time order with departures applied before arrivals at
    // the same instant (a closed instance has freed its machine).
    std::vector<std::pair<double, double>> deltas;
    deltas.reserve(raw.size() * 2);
    for (const RawInstance &r : raw) {
        deltas.emplace_back(r.arrival, r.cpu);
        double close = r.depart >= 0.0 ? r.depart : end_s;
        deltas.emplace_back(close, -r.cpu);
    }
    std::stable_sort(deltas.begin(), deltas.end(),
                     [](const auto &a, const auto &b) {
                         if (a.first != b.first)
                             return a.first < b.first;
                         return a.second < b.second;
                     });
    double level = 0.0, peak = 0.0;
    for (const auto &[t, d] : deltas) {
        (void)t;
        level += d;
        peak = std::max(peak, level);
    }
    return peak;
}

} // namespace

MappedTrace
mapTrace(const TraceStream &stream, const TraceMapperConfig &cfg)
{
    MappedTrace out;
    out.horizon_s = cfg.target_horizon_s;
    out.target_servers = cfg.target_servers;

    // ---- 1. Pair arrivals with departures/resizes. -----------------
    std::vector<RawInstance> raw;
    raw.reserve(stream.events.size());
    // Open instances per id: indices into raw, innermost last.
    std::map<uint64_t, std::vector<size_t>> open;
    for (const TraceEvent &ev : stream.events) {
        switch (ev.kind) {
        case TraceEventKind::Arrival: {
            std::vector<size_t> &stack = open[ev.instance];
            if (!stack.empty())
                ++out.duplicate_arrivals;
            RawInstance r;
            r.id = ev.instance;
            r.arrival = ev.time_s;
            r.cpu = ev.cpu;
            r.memory = ev.memory;
            r.priority = ev.priority;
            r.sched_class = ev.sched_class;
            stack.push_back(raw.size());
            raw.push_back(r);
            break;
        }
        case TraceEventKind::Departure: {
            auto it = open.find(ev.instance);
            if (it == open.end() || it->second.empty()) {
                ++out.unmatched_departures;
                break;
            }
            raw[it->second.back()].depart = ev.time_s;
            it->second.pop_back();
            break;
        }
        case TraceEventKind::Resize: {
            auto it = open.find(ev.instance);
            if (it == open.end() || it->second.empty()) {
                ++out.unmatched_resizes;
                break;
            }
            raw[it->second.back()].phase_change = true;
            break;
        }
        }
    }
    if (raw.empty())
        return out;

    // ---- 2. Source size and scale factors. -------------------------
    double span = stream.spanSeconds();
    out.time_scale =
        span > 0.0 ? cfg.target_horizon_s / span : 1.0;
    out.source_servers =
        cfg.source_servers > 0.0
            ? cfg.source_servers
            : std::max(1.0, peakConcurrentCpu(raw, stream.end_s));
    out.population_scale =
        double(cfg.target_servers) / out.source_servers;

    // ---- 3. Rescale + thin/clone into the replayable list. ---------
    size_t whole = size_t(out.population_scale);
    double frac = out.population_scale - double(whole);
    // Clone jitter window: clones of one source instance spread over
    // a small slice of the horizon so replicated arrivals do not land
    // as a synchronized thundering herd.
    double jitter_s = 0.02 * cfg.target_horizon_s;
    for (const RawInstance &r : raw) {
        size_t copies =
            whole + (hash01(r.id, whole, cfg.seed) < frac ? 1 : 0);
        for (size_t c = 0; c < copies; ++c) {
            MappedItem item;
            item.source_id =
                c == 0 ? r.id
                       : r.id ^ (0xA24BAED4963EE407ULL * (c + 1));
            item.cls = classify(r);
            item.cpu = r.cpu;
            item.memory = r.memory;
            item.phase_change = r.phase_change;

            double shift =
                c == 0 ? 0.0
                       : hash01(item.source_id, c, cfg.seed) * jitter_s;
            double arrive =
                (r.arrival - stream.start_s) * out.time_scale + shift;
            arrive = std::min(arrive, cfg.target_horizon_s);
            item.arrival_s = arrive;
            if (r.depart >= 0.0) {
                double life =
                    (r.depart - r.arrival) * out.time_scale;
                life = std::max(life, kMinLifetimeS);
                double depart = arrive + life;
                // Departures past the horizon degrade to "runs until
                // completion", matching the churn engine's contract.
                item.depart_s =
                    depart < cfg.target_horizon_s ? depart : 0.0;
            }
            out.items.push_back(item);
        }
    }

    std::stable_sort(out.items.begin(), out.items.end(),
                     [](const MappedItem &a, const MappedItem &b) {
                         return a.arrival_s < b.arrival_s;
                     });

    for (const MappedItem &item : out.items) {
        switch (item.cls) {
        case ChurnClass::SingleNode:
            ++out.mix.single_node;
            break;
        case ChurnClass::Analytics:
            ++out.mix.analytics;
            break;
        case ChurnClass::Service:
            ++out.mix.service;
            break;
        case ChurnClass::BestEffort:
            ++out.mix.best_effort;
            break;
        }
        if (item.depart_s > 0.0)
            ++out.departures_planned;
        if (item.phase_change)
            ++out.phase_changes;
    }
    return out;
}

} // namespace quasar::trace
