/**
 * @file
 * Host fingerprint stamped on every result, the build check that
 * refuses to report timings from an instrumented build, and the host
 * probe that host times are scaled by.
 */

#pragma once

#include <string>

namespace perfbench
{

struct HostFingerprint
{
    unsigned nproc = 0;
    std::string cpu_model;
    std::string compiler;
    std::string build_type;
};

HostFingerprint hostFingerprint();

/** One-line JSON object of the fingerprint. */
std::string fingerprintJson(const HostFingerprint &h);

/**
 * Why this build must not report timings (QUASAR_VERIFY shadow oracle
 * or a sanitizer would be timed as Quasar); empty when it may.
 */
std::string instrumentedBuildReason();

/**
 * Reset the kernel's peak-RSS mark of this process to its current RSS,
 * so the next peakRssMb() covers only what ran since. Where the kernel
 * does not allow it, the mark keeps covering the whole process.
 */
void resetPeakRss();

/** Peak resident set size of this process (VmHWM), MiB. */
double peakRssMb();

/**
 * One reading of the host probe: a fixed amount of work of two kinds,
 * timed apart. The benchmark host is shared, and other tenants take
 * its cache for minutes at a time; the manager's run slows with them,
 * by up to 1.5x. The compute part (a dependent integer chain, about
 * 21 ms on a quiet host) hardly notices. The cache part (a random
 * pointer chase over a 4 MiB table, about 9 ms on a quiet host) slows
 * by up to 2x. Their sum slows about as much as the manager.
 */
struct ProbeReading
{
    double compute_s = 0.0;
    double cache_s = 0.0;
};

ProbeReading probeHost();

/**
 * The probe's total on the uncontended host the benchmark was tuned
 * on (4-vCPU Intel Xeon VM). Host times are reported scaled by
 * kProbeReferenceS / (the run's median probe total), that is, as they
 * would read at the reference probe speed.
 */
constexpr double kProbeReferenceS = 0.030;

} // namespace perfbench
