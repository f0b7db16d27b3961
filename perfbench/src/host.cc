#include "host.hh"

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <utility>
#include <vector>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#endif

namespace perfbench
{

namespace
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        size_t colon = line.find(':');
        if (colon == std::string::npos)
            break;
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
    }
    return "unknown";
}

using ProbeClock = std::chrono::steady_clock;

double
secondsSince(ProbeClock::time_point t0)
{
    return std::chrono::duration<double>(ProbeClock::now() - t0).count();
}

/** next[i] of one cycle through all n slots (Sattolo's shuffle). */
std::vector<uint32_t>
chaseTable(size_t n)
{
    std::vector<uint32_t> next(n);
    for (size_t i = 0; i < n; ++i)
        next[i] = uint32_t(i);
    uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (size_t i = n - 1; i > 0; --i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::swap(next[i], next[x % i]);
    }
    return next;
}

// Keeps the probe's results live so the compiler cannot drop its work.
volatile uint64_t probe_sink;

} // namespace

HostFingerprint
hostFingerprint()
{
    HostFingerprint h;
    h.nproc = std::thread::hardware_concurrency();
    h.cpu_model = cpuModel();
#if defined(__clang__)
    h.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    h.compiler = std::string("gcc ") + __VERSION__;
#else
    h.compiler = "unknown";
#endif
    h.build_type = PERFBENCH_BUILD_TYPE;
    return h;
}

std::string
fingerprintJson(const HostFingerprint &h)
{
    return "{\"nproc\": " + std::to_string(h.nproc) +
           ", \"cpu_model\": \"" + jsonEscape(h.cpu_model) +
           "\", \"compiler\": \"" + jsonEscape(h.compiler) +
           "\", \"build_type\": \"" + jsonEscape(h.build_type) + "\"}";
}

std::string
instrumentedBuildReason()
{
#if defined(QUASAR_VERIFY)
    return "built with QUASAR_VERIFY: the shadow scheduler oracle "
           "would be timed as Quasar";
#elif defined(PERFBENCH_SANITIZED)
    return "built with a sanitizer: instrumented code would be timed "
           "as Quasar";
#else
    return {};
#endif
}

void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5"; // 5 resets VmHWM.
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0; // kB -> MiB.
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux.
}

ProbeReading
probeHost()
{
    static const std::vector<uint32_t> table = chaseTable(size_t(1) << 20);
    ProbeReading r;

    ProbeClock::time_point t0 = ProbeClock::now();
    uint64_t h = 0xCBF29CE484222325ULL;
    for (uint64_t i = 0; i < 8'000'000; ++i) {
        h ^= i;
        h *= 0x100000001B3ULL;
        h ^= h >> 29;
    }
    probe_sink = h;
    r.compute_s = secondsSince(t0);

    t0 = ProbeClock::now();
    uint32_t at = 0;
    for (int i = 0; i < 140'000; ++i)
        at = table[at];
    probe_sink = at;
    r.cache_s = secondsSince(t0);
    return r;
}

} // namespace perfbench
