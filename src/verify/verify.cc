#include "verify/verify.hh"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <vector>

#include "workload/scale_up_config.hh"

namespace quasar::verify
{

Counters &
counters()
{
    static Counters c;
    return c;
}

namespace
{

[[noreturn]] void
fail(const std::string &what)
{
    std::fprintf(stderr,
                 "\n=== QUASAR_VERIFY violation ===\n%s\n"
                 "(sweeps=%" PRIu64 " shadow_checks=%" PRIu64
                 " divergences=%" PRIu64 ")\n",
                 what.c_str(), counters().cluster_sweeps,
                 counters().shadow_checks,
                 counters().shadow_divergences);
    std::abort();
}

std::string
describeAllocation(const std::optional<core::Allocation> &a)
{
    if (!a)
        return "  <no allocation>";
    std::ostringstream os;
    os.precision(17);
    for (const core::AllocationNode &n : a->nodes)
        os << "  node server=" << n.server << " col=" << n.scale_up_col
           << " cores=" << n.cores << " mem=" << n.memory_gb
           << " socket=" << n.socket
           << " perf=" << n.predicted_node_perf << "\n";
    for (const auto &[sid, wid] : a->evictions)
        os << "  evict server=" << sid << " workload=" << wid << "\n";
    os << "  predicted_perf=" << a->predicted_perf
       << " degraded=" << (a->degraded ? "yes" : "no");
    return os.str();
}

/** Field-exact (bitwise on doubles) equality of two decisions. */
bool
sameAllocation(const std::optional<core::Allocation> &a,
               const std::optional<core::Allocation> &b)
{
    if (a.has_value() != b.has_value())
        return false;
    if (!a)
        return true;
    if (a->nodes.size() != b->nodes.size() ||
        a->evictions.size() != b->evictions.size())
        return false;
    for (size_t i = 0; i < a->nodes.size(); ++i) {
        const core::AllocationNode &x = a->nodes[i];
        const core::AllocationNode &y = b->nodes[i];
        // Exact double compares are the point: the replay contract is
        // bit-identical, not merely close.
        if (x.server != y.server || x.scale_up_col != y.scale_up_col ||
            x.cores != y.cores || x.memory_gb != y.memory_gb ||
            x.socket != y.socket ||
            x.predicted_node_perf != y.predicted_node_perf)
            return false;
    }
    for (size_t i = 0; i < a->evictions.size(); ++i)
        if (a->evictions[i] != b->evictions[i])
            return false;
    return a->knobs == b->knobs &&
           a->predicted_perf == b->predicted_perf &&
           a->degraded == b->degraded;
}

} // namespace

void
sweepCluster(const sim::Cluster &cluster,
             const workload::WorkloadRegistry *registry)
{
    ++counters().cluster_sweeps;

    // Per-server accounting and local structural invariants.
    uint64_t version_sum = 0;
    std::map<WorkloadId, std::vector<ServerId>> hosting;
    for (size_t s = 0; s < cluster.size(); ++s) {
        const sim::Server &srv = cluster.server(ServerId(s));
        version_sum += srv.version();
        if (!srv.checkInvariants())
            fail("server " + std::to_string(s) +
                 " failed checkInvariants() (allocation over "
                 "capacity, duplicate share, share on a down "
                 "machine, usage above allocation, or an illegal "
                 "speed factor)");
        // Socket-ledger conservation (DESIGN.md §13): the maintained
        // per-socket ledger is a pure mirror of the task shares, so
        // every socket must match a fresh ordered recompute (within a
        // drift epsilon — the mirror accumulates add/subtract
        // round-off by design, which is exactly why decision paths
        // never read it), no component may run negative, and the
        // sockets must sum to the flat raw-pressure ledger.
        {
            interference::IVector summed{};
            for (int sock = 0; sock < srv.numSockets(); ++sock) {
                const interference::IVector maintained =
                    srv.maintainedSocketPressure(sock);
                const interference::IVector fresh =
                    srv.freshSocketPressure(sock);
                for (size_t i = 0; i < interference::kNumSources;
                     ++i) {
                    if (maintained[i] < -1e-6)
                        fail("socket ledger negative on server " +
                             std::to_string(s) + " socket " +
                             std::to_string(sock) + " source " +
                             std::to_string(i) + ": " +
                             std::to_string(maintained[i]));
                    const double tol =
                        1e-6 + 1e-6 * std::abs(fresh[i]);
                    if (std::abs(maintained[i] - fresh[i]) > tol)
                        fail("socket ledger desynchronized on "
                             "server " +
                             std::to_string(s) + " socket " +
                             std::to_string(sock) + " source " +
                             std::to_string(i) + ": maintained " +
                             std::to_string(maintained[i]) +
                             " vs fresh " + std::to_string(fresh[i]));
                    summed[i] += maintained[i];
                }
            }
            const interference::IVector raw = srv.rawPressure();
            for (size_t i = 0; i < interference::kNumSources; ++i) {
                const double tol = 1e-6 + 1e-6 * std::abs(raw[i]);
                if (std::abs(summed[i] - raw[i]) > tol)
                    fail("socket ledger sum diverges from the flat "
                         "raw-pressure ledger on server " +
                         std::to_string(s) + " source " +
                         std::to_string(i) + ": sum " +
                         std::to_string(summed[i]) + " vs raw " +
                         std::to_string(raw[i]));
            }
        }
        for (const sim::TaskShare &t : srv.tasks()) {
            hosting[t.workload].push_back(ServerId(s));
            if (registry) {
                if (!registry->contains(t.workload))
                    fail("server " + std::to_string(s) +
                         " hosts unknown workload " +
                         std::to_string(t.workload));
                const workload::Workload &w =
                    registry->get(t.workload);
                if (w.completed)
                    fail("completed workload " +
                         std::to_string(t.workload) +
                         " still holds resources on server " +
                         std::to_string(s));
                if (w.killed)
                    fail("killed workload " +
                         std::to_string(t.workload) +
                         " still holds resources on server " +
                         std::to_string(s));
            }
        }
    }

    // Overload-control accounting: shed is a terminal outcome that
    // implies killed (and therefore, via the checks above, holds no
    // resources anywhere). A shed flag without killed means some path
    // invented a fifth outcome outside the admitted / completed /
    // departed / shed split.
    if (registry) {
        for (WorkloadId wid : registry->active()) {
            const workload::Workload &w = registry->get(wid);
            if (w.shed && !w.killed)
                fail("workload " + std::to_string(wid) +
                     " is marked shed but not killed — shed must be "
                     "terminal");
        }
    }

    // No duplicate placements: each (server, workload) pair is unique
    // by the per-server check above; across servers, only distributed
    // workload types may hold shares on more than one machine.
    if (registry) {
        for (const auto &[wid, servers] : hosting) {
            if (servers.size() > 1 && registry->contains(wid) &&
                !workload::isDistributed(registry->get(wid).type)) {
                std::string where;
                for (ServerId sid : servers) {
                    // Two appends, not `" " + to_string(...)`: the
                    // temporary-string operator+ trips a gcc-12
                    // -Wrestrict false positive (PR105651) under
                    // -Werror.
                    where += ' ';
                    where += std::to_string(sid);
                }
                fail("non-distributed workload " +
                     std::to_string(wid) + " placed on " +
                     std::to_string(servers.size()) + " servers:" +
                     where);
            }
        }
    }

    // Hosting-index coherence: the incrementally-maintained reverse
    // index must match this sweep's direct scan exactly — same
    // workloads, same servers, same (ascending) order — and the busy
    // set must be precisely the non-empty servers. A mismatch means a
    // membership mutation path skipped its listener notification.
    if (cluster.hostingIndex().hostedWorkloads() != hosting.size())
        fail("hosting index tracks " +
             std::to_string(cluster.hostingIndex().hostedWorkloads()) +
             " hosted workloads but a direct scan finds " +
             std::to_string(hosting.size()));
    std::vector<ServerId> busy_scan;
    for (size_t s = 0; s < cluster.size(); ++s)
        if (!cluster.server(ServerId(s)).tasks().empty())
            busy_scan.push_back(ServerId(s));
    if (cluster.busyServers() != busy_scan)
        fail("hosting index busy-server set diverges from a direct "
             "scan (" +
             std::to_string(cluster.busyServers().size()) +
             " indexed vs " + std::to_string(busy_scan.size()) +
             " scanned)");
    for (auto &[wid, servers] : hosting) {
        std::sort(servers.begin(), servers.end());
        if (cluster.serversHosting(wid) != servers)
            fail("hosting index entry for workload " +
                 std::to_string(wid) +
                 " diverges from a direct scan");
    }

    // Journal coherence: every placement-relevant mutation bumps the
    // server's epoch AND notes the journal (servers are attached at
    // cluster construction), so the epochs must sum to the journal's
    // monotone note count. A mismatch means some mutator forgot
    // bumpVersion() or noted without bumping — exactly the bug class
    // that silently desynchronizes the dirty-set scheduler index.
    const sim::ChangeJournal &journal = cluster.journal();
    if (version_sum != journal.totalNoted())
        fail("ChangeJournal incoherent: sum of server change epochs "
             "is " +
             std::to_string(version_sum) + " but the journal has " +
             std::to_string(journal.totalNoted()) +
             " total notes — a mutation path bumped without noting "
             "(or noted without bumping)");
    if (journal.base() > journal.end())
        fail("ChangeJournal window inverted: base " +
             std::to_string(journal.base()) + " > end " +
             std::to_string(journal.end()));
    for (uint64_t pos = journal.base(); pos < journal.end(); ++pos)
        if (size_t(journal.at(pos)) >= cluster.size())
            fail("ChangeJournal entry at offset " +
                 std::to_string(pos) + " names server " +
                 std::to_string(journal.at(pos)) +
                 " outside the cluster (size " +
                 std::to_string(cluster.size()) + ")");
}

void
shadowCheckAllocation(const sim::Cluster &cluster,
                      const core::SchedulerConfig &cfg,
                      const workload::WorkloadRegistry *registry,
                      const workload::Workload &w,
                      const core::WorkloadEstimate &est,
                      double required_perf,
                      const core::EstimateLookup &estimates,
                      bool may_evict,
                      const std::optional<core::Allocation> &primary)
{
    ++counters().shadow_checks;

    // Fresh scheduler on the legacy recompute-everything path: no
    // shared cache, no journal cursor, nothing to inherit a primary-
    // path bug from. Its own verify hook is a no-op (full_rescan never
    // shadows), so this cannot recurse.
    core::SchedulerConfig shadow_cfg = cfg;
    shadow_cfg.full_rescan = true;
    core::GreedyScheduler shadow(cluster, shadow_cfg, registry);
    std::optional<core::Allocation> expected =
        shadow.allocate(w, est, required_perf, estimates, may_evict);

    if (!sameAllocation(primary, expected)) {
        ++counters().shadow_divergences;
        fail("shadow scheduler oracle divergence for workload " +
             std::to_string(w.id) + " (" + w.name +
             "):\n--- incremental decision ---\n" +
             describeAllocation(primary) +
             "\n--- full_rescan decision ---\n" +
             describeAllocation(expected));
    }
}

} // namespace quasar::verify
