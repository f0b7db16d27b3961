#include "core/scheduler.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "stats/timing.hh"

#ifdef QUASAR_VERIFY
#include <cstdio>
#include <cstdlib>

// Sanctioned upward edge: the shadow oracle hooks in under
// QUASAR_VERIFY only. quasar-lint: allow(layering)
#include "verify/verify.hh"
#endif

namespace quasar::core
{

using workload::FrameworkKnobs;
using workload::Workload;

int
Allocation::totalCores() const
{
    int n = 0;
    for (const AllocationNode &node : nodes)
        n += node.cores;
    return n;
}

double
Allocation::totalMemoryGb() const
{
    double m = 0.0;
    for (const AllocationNode &node : nodes)
        m += node.memory_gb;
    return m;
}

namespace
{

struct Evictable
{
    int cores = 0;
    double memory_gb = 0.0;
    double storage_gb = 0.0;
};

/**
 * Best-effort residents' totals in task order. The single source of
 * truth for this sum: the cache refresh and the full_rescan path both
 * call it, so the two decision paths see bitwise-identical values.
 */
Evictable
bestEffortTotals(const sim::Server &srv)
{
    Evictable e;
    for (const sim::TaskShare &t : srv.tasks()) {
        if (t.best_effort) {
            e.cores += t.cores;
            e.memory_gb += t.memory_gb;
            e.storage_gb += t.storage_gb;
        }
    }
    return e;
}

/** Strict-weak order for ranking: quality desc, id asc on ties. */
bool
rankedBefore(const std::pair<double, ServerId> &a,
             const std::pair<double, ServerId> &b)
{
    if (a.first != b.first)
        return a.first > b.first;
    return a.second < b.second;
}

/**
 * Admissible read-time bound on any bucket of a (platform, speed)
 * level: quality = pf × im × speed with im ∈ (0, 1], so pf ≥ 0 gives
 * quality ≤ pf × speed (exact in floating point: multiplying a
 * non-negative representable value by a factor ≤ 1 never rounds above
 * it), and pf < 0 gives quality ≤ 0.
 */
double
levelBound(double platform_factor, double speed)
{
    return platform_factor >= 0.0 ? platform_factor * speed : 0.0;
}

/**
 * Best predicted interference multiplier over a server's sockets —
 * the lazily-applied per-workload factor of the quality expression.
 * On a flat server this is exactly the single-view multiplier, so the
 * flat quality expression is unchanged bit for bit.
 */
double
bestSocketMultiplier(
    const WorkloadEstimate &est,
    const std::array<interference::IVector, topology::kMaxSockets>
        &views,
    int sockets, double slope)
{
    double best = est.interferenceMultiplier(views[0], slope);
    for (int s = 1; s < sockets; ++s) {
        double m = est.interferenceMultiplier(views[size_t(s)], slope);
        if (m > best)
            best = m;
    }
    return best;
}

/**
 * Socket-selection rule (DESIGN.md §13). Aware: highest predicted
 * multiplier, ties broken toward fewer homed cores, then the lower
 * socket id; blind: least homed cores, then lower id. Deterministic
 * on bitwise-equal inputs, so it replays identically in all modes.
 */
int
chooseSocket(
    const WorkloadEstimate &est,
    const std::array<interference::IVector, topology::kMaxSockets>
        &views,
    const std::array<int, topology::kMaxSockets> &homed, int sockets,
    bool socket_aware, double slope)
{
    if (sockets <= 1)
        return 0;
    int best = 0;
    if (socket_aware) {
        double best_m = est.interferenceMultiplier(views[0], slope);
        for (int s = 1; s < sockets; ++s) {
            double m =
                est.interferenceMultiplier(views[size_t(s)], slope);
            if (m > best_m ||
                (m == best_m &&
                 homed[size_t(s)] < homed[size_t(best)])) {
                best = s;
                best_m = m;
            }
        }
        return best;
    }
    for (int s = 1; s < sockets; ++s)
        if (homed[size_t(s)] < homed[size_t(best)])
            best = s;
    return best;
}

} // namespace

void
GreedyScheduler::rebuildPlatformIndex() const
{
    platform_idx_.clear();
    const auto &catalog = cluster_.catalog();
    for (size_t i = 0; i < catalog.size(); ++i)
        platform_idx_[catalog[i].name] = i;
    indexed_catalog_size_ = catalog.size();
}

size_t
GreedyScheduler::platformIndexOf(const sim::Server &srv) const
{
    if (cluster_.catalog().size() != indexed_catalog_size_)
        rebuildPlatformIndex();
    auto it = platform_idx_.find(srv.platform().name);
    if (it == platform_idx_.end()) {
        // Catalog mutated without a size change; rebuild once.
        rebuildPlatformIndex();
        it = platform_idx_.find(srv.platform().name);
        assert(it != platform_idx_.end());
    }
    return it->second;
}

void
GreedyScheduler::refreshEntry(const sim::Server &srv,
                              ServerCacheEntry &e) const
{
    sim::Server::SocketSnapshot snap = srv.socketSnapshot();
    e.sockets = uint8_t(snap.sockets);
    e.socket_contention = snap.contention;
    e.socket_cores = snap.cores_homed;
    e.free_cores = srv.coresFree();
    e.free_mem = srv.memoryFree();
    e.free_storage = srv.storageFree();
    e.speed = srv.speedFactor();
    e.available = srv.available();
    Evictable be = bestEffortTotals(srv);
    e.be_cores = be.cores;
    e.be_mem = be.memory_gb;
    e.be_storage = be.storage_gb;
    e.platform_idx = platformIndexOf(srv);
    // Prio-class key: the lowest registry priority among non-best-
    // effort residents holding at least one core. priorityEvictable()
    // frees ≥ 1 core for workload w exactly when this key is strictly
    // below w.priority (core shares are non-negative integers), so
    // the drain can skip whole priority classes without walking the
    // resident ledger.
    e.prio_key = kNoPrio;
    if (registry_) {
        for (const sim::TaskShare &t : srv.tasks()) {
            if (t.best_effort || t.cores < 1)
                continue;
            if (!registry_->contains(t.workload))
                continue;
            e.prio_key = std::min(e.prio_key,
                                  registry_->get(t.workload).priority);
        }
    }
    e.version = srv.version();
}

std::pair<GreedyScheduler::FeasClass, int>
GreedyScheduler::feasibilityClass(const ServerCacheEntry &e)
{
    if (!e.available)
        return {FeasClass::Closed, kNoPrio};
    if (e.free_cores >= 1)
        return {FeasClass::Open, kNoPrio};
    if (e.free_cores + e.be_cores >= 1)
        return {FeasClass::Evict, kNoPrio};
    if (e.prio_key != kNoPrio)
        return {FeasClass::Prio, e.prio_key};
    return {FeasClass::Closed, kNoPrio};
}

std::vector<uint32_t> &
GreedyScheduler::levelList(OrderLevel &lvl, FeasClass cls, int prio_key)
{
    switch (cls) {
    case FeasClass::Open:
        return lvl.open;
    case FeasClass::Evict:
        return lvl.evict;
    case FeasClass::Prio:
        return lvl.prio[prio_key];
    case FeasClass::Closed:
        break;
    }
    return lvl.closed;
}

void
GreedyScheduler::refreshEntryIndexed(const sim::Server &srv,
                                     ServerCacheEntry &e) const
{
    refreshEntry(srv, e);
    if (orderMaintained())
        orderPlace(srv.id(), e);
}

void
GreedyScheduler::orderPlace(ServerId id, const ServerCacheEntry &e) const
{
    // Socket count rides in the platform word: a flat server with
    // contention v and a 2-socket server with [v, 0] must never share
    // a bucket (the idle remote socket lifts the best-socket
    // multiplier). Absent sockets stay zero-padded, so the flat
    // partition is exactly the pre-topology one.
    OrderSig sig{};
    sig[0] = uint64_t(e.platform_idx) | uint64_t(e.sockets) << 56;
    sig[1] = std::bit_cast<uint64_t>(e.speed);
    for (size_t s = 0; s < size_t(topology::kMaxSockets); ++s)
        for (size_t i = 0; i < interference::kNumSources; ++i)
            sig[2 + s * interference::kNumSources + i] =
                std::bit_cast<uint64_t>(e.socket_contention[s][i]);
    // The feasibility class rides in the signature, so a mutation
    // that leaves the contention vector untouched but opens or closes
    // the server (a zero-pressure placement consuming the last free
    // core, an eviction freeing one) still migrates it between class
    // lists — the early-out below stays correct.
    auto [cls, prio_key] = feasibilityClass(e);
    sig[sig.size() - 1] =
        uint64_t(uint32_t(prio_key)) | uint64_t(cls) << 62;

    if (server_bucket_.size() < cache_.size())
        server_bucket_.resize(cache_.size(), kNoBucket);
    uint32_t cur = server_bucket_[size_t(id)];
    if (cur != kNoBucket && order_buckets_[cur].sig == sig)
        return; // the mutation kept the signature; order unchanged
    if (cur != kNoBucket)
        orderRemove(id);

    uint32_t slot;
    auto it = bucket_of_sig_.find(sig);
    if (it != bucket_of_sig_.end()) {
        slot = it->second;
    } else {
        if (free_buckets_.empty()) {
            slot = uint32_t(order_buckets_.size());
            order_buckets_.emplace_back();
        } else {
            slot = free_buckets_.back();
            free_buckets_.pop_back();
        }
        OrderBucket &b = order_buckets_[slot];
        b.sig = sig;
        b.platform_idx = e.platform_idx;
        b.speed = e.speed;
        b.socket_contention = e.socket_contention;
        b.sockets = e.sockets;
        b.cls = cls;
        b.prio_key = prio_key;
        b.ids.clear();
        if (platform_order_.size() <= e.platform_idx)
            platform_order_.resize(e.platform_idx + 1);
        OrderLevel &lvl = platform_order_[e.platform_idx][e.speed];
        std::vector<uint32_t> &list = levelList(lvl, cls, prio_key);
        b.level_pos = uint32_t(list.size());
        list.push_back(slot);
        bucket_of_sig_.emplace(sig, slot);
    }
    order_buckets_[slot].ids.insert(id);
    server_bucket_[size_t(id)] = slot;
}

void
GreedyScheduler::orderRemove(ServerId id) const
{
    uint32_t slot = server_bucket_[size_t(id)];
    OrderBucket &b = order_buckets_[slot];
    b.ids.erase(id);
    server_bucket_[size_t(id)] = kNoBucket;
    if (!b.ids.empty())
        return;
    // Free the emptied bucket: swap-remove it from its level's class
    // list, drop the level when it fully empties, release the slot to
    // the free list.
    LevelMap &levels = platform_order_[b.platform_idx];
    auto lit = levels.find(b.speed);
    assert(lit != levels.end());
    OrderLevel &lvl = lit->second;
    std::vector<uint32_t> &list = levelList(lvl, b.cls, b.prio_key);
    uint32_t moved = list.back();
    list[b.level_pos] = moved;
    order_buckets_[moved].level_pos = b.level_pos;
    list.pop_back();
    if (b.cls == FeasClass::Prio && list.empty())
        lvl.prio.erase(b.prio_key);
    if (lvl.empty())
        levels.erase(lit);
    bucket_of_sig_.erase(b.sig);
    free_buckets_.push_back(slot);
}

bool
GreedyScheduler::cursorLess(const OrderCursor &a, const OrderCursor &b)
{
    return rankedBefore({b.quality, b.id}, {a.quality, a.id});
}

bool
GreedyScheduler::levelLess(const LevelCursor &a, const LevelCursor &b)
{
    if (a.bound != b.bound)
        return a.bound < b.bound;
    return a.platform > b.platform;
}

void
GreedyScheduler::beginOrderedCandidates(OrderStream &s,
                                        const WorkloadEstimate &est,
                                        const OrderFilter &filter) const
{
    s.exact.clear();
    s.pending.clear();
    s.filter = filter;
    for (size_t p = 0; p < platform_order_.size(); ++p) {
        const LevelMap &levels = platform_order_[p];
        if (levels.empty())
            continue;
        assert(p < est.platform_factor.size());
        LevelCursor lc;
        lc.bound = levelBound(est.platform_factor[p], levels.begin()->first);
        lc.platform = p;
        lc.it = levels.begin();
        s.pending.push_back(lc);
    }
    std::make_heap(s.pending.begin(), s.pending.end(), levelLess);
}

std::optional<std::pair<double, ServerId>>
GreedyScheduler::nextOrderedCandidate(OrderStream &s,
                                      const WorkloadEstimate &est) const
{
    while (true) {
        // Emit the best expanded candidate once no unexpanded level
        // can beat it. A level whose bound merely TIES the candidate
        // must still be expanded first: it may hold an equal-quality
        // server with a smaller id (rankedBefore's tie-break).
        if (!s.exact.empty() &&
            (s.pending.empty() ||
             s.exact.front().quality > s.pending.front().bound)) {
            std::pop_heap(s.exact.begin(), s.exact.end(), cursorLess);
            OrderCursor c = s.exact.back();
            s.exact.pop_back();
            std::pair<double, ServerId> out{c.quality, c.id};
            ++c.it;
            if (c.it != c.bucket->ids.end()) {
                c.id = *c.it;
                s.exact.push_back(c);
                std::push_heap(s.exact.begin(), s.exact.end(),
                               cursorLess);
            }
            return out;
        }
        if (s.pending.empty())
            return std::nullopt; // order fully drained
        // Expand the best unexpanded level: apply the per-workload
        // factors once per bucket (not once per server), then queue
        // the platform's next-fastest level under its own bound. Only
        // the class lists the filter admits are touched — a saturated
        // level (all members Closed, or Prio at or above the
        // workload's priority) costs one map probe, not a walk over
        // its members.
        std::pop_heap(s.pending.begin(), s.pending.end(), levelLess);
        LevelCursor lc = s.pending.back();
        s.pending.pop_back();
        const OrderLevel &level = lc.it->second;
        auto expand = [&](const std::vector<uint32_t> &list) {
            for (uint32_t slot : list) {
                const OrderBucket &b = order_buckets_[slot];
                OrderCursor c;
                // Exactly serverQuality's factor order, on bitwise-
                // equal inputs, so the drained order matches a
                // from-scratch ranking bit for bit.
                c.quality =
                    est.platform_factor[b.platform_idx] *
                    bestSocketMultiplier(est, b.socket_contention,
                                         b.sockets, cfg_.slope_guess) *
                    b.speed;
                c.bucket = &b;
                c.it = b.ids.begin();
                c.id = *c.it;
                s.exact.push_back(c);
                std::push_heap(s.exact.begin(), s.exact.end(),
                               cursorLess);
            }
        };
        expand(level.open);
        if (s.filter.all || s.filter.evict)
            expand(level.evict);
        if (s.filter.all) {
            for (const auto &[key, list] : level.prio)
                expand(list);
            expand(level.closed);
        } else {
            for (auto it = level.prio.begin();
                 it != level.prio.end() &&
                 it->first < s.filter.prio_below;
                 ++it)
                expand(it->second);
        }
        auto nit = std::next(lc.it);
        if (nit != platform_order_[lc.platform].end()) {
            LevelCursor nc;
            nc.bound =
                levelBound(est.platform_factor[lc.platform], nit->first);
            nc.platform = lc.platform;
            nc.it = nit;
            s.pending.push_back(nc);
            std::push_heap(s.pending.begin(), s.pending.end(),
                           levelLess);
        }
    }
}

const GreedyScheduler::ServerCacheEntry &
GreedyScheduler::cachedState(const sim::Server &srv) const
{
    if (cache_.size() < cluster_.size())
        cache_.resize(cluster_.size());
    ServerCacheEntry &e = cache_[size_t(srv.id())];
    if (e.version != srv.version())
        refreshEntryIndexed(srv, e);
    return e;
}

void
GreedyScheduler::refreshIndex() const
{
    const sim::ChangeJournal &journal = cluster_.journal();
    if (cache_.size() < cluster_.size())
        cache_.resize(cluster_.size());
    bool force = cluster_.catalog().size() != indexed_catalog_size_;
    if (force)
        rebuildPlatformIndex(); // platform indices may have moved
    if (force || !index_primed_ || journal_cursor_ < journal.base()) {
        // First use, a cursor compacted out of the journal, or a
        // catalog change: fall back to a full epoch-check scan, once.
        for (size_t i = 0; i < cluster_.size(); ++i) {
            const sim::Server &srv = cluster_.server(ServerId(i));
            ServerCacheEntry &e = cache_[i];
            if (force || e.version != srv.version())
                refreshEntryIndexed(srv, e);
        }
        index_primed_ = true;
    } else {
        // Incremental: replay only the servers touched since this
        // scheduler's last decision. Duplicate journal entries dedupe
        // through the epoch compare (first replay refreshes, the rest
        // no-op).
        const uint64_t snapshot = journal.end();
        for (uint64_t pos = journal_cursor_; pos < snapshot; ++pos) {
            const sim::Server &srv = cluster_.server(journal.at(pos));
            ServerCacheEntry &e = cache_[size_t(srv.id())];
            if (e.version != srv.version())
                refreshEntryIndexed(srv, e);
        }
    }
    journal_cursor_ = journal.end();
#ifdef QUASAR_VERIFY
    // Sampled (every 64th refresh): the full recompute is O(N x
    // ledger) and the refresh runs per decision, so auditing every
    // call would dominate verify-build suites without adding much —
    // a desynchronized entry stays desynchronized until its next
    // legitimate refresh and is caught by a later sample or by the
    // shadow oracle's divergence check. Tests can force an unsampled
    // audit through auditIndexCoherenceNow().
    if (++audit_refreshes_ % 64 == 0)
        auditIndexCoherence();
#endif
}

#ifdef QUASAR_VERIFY
void
GreedyScheduler::auditIndexCoherence() const
{
    ++verify::counters().index_audits;
    size_t ordered_members = 0;
    for (size_t i = 0; i < cluster_.size(); ++i) {
        const sim::Server &srv = cluster_.server(ServerId(i));
        const ServerCacheEntry &cached = cache_[i];
        if (cached.version != srv.version()) {
            std::fprintf(stderr,
                         "QUASAR_VERIFY: index entry for server %zu "
                         "is stale after journal replay (entry epoch "
                         "%llu, server epoch %llu) — a mutation was "
                         "not journaled\n",
                         i, (unsigned long long)cached.version,
                         (unsigned long long)srv.version());
            std::abort();
        }
        ServerCacheEntry fresh;
        refreshEntry(srv, fresh);
        if (fresh.sockets != cached.sockets ||
            fresh.socket_contention != cached.socket_contention ||
            fresh.socket_cores != cached.socket_cores ||
            fresh.free_cores != cached.free_cores ||
            fresh.free_mem != cached.free_mem ||
            fresh.free_storage != cached.free_storage ||
            fresh.speed != cached.speed ||
            fresh.available != cached.available ||
            fresh.be_cores != cached.be_cores ||
            fresh.be_mem != cached.be_mem ||
            fresh.be_storage != cached.be_storage ||
            fresh.platform_idx != cached.platform_idx ||
            fresh.prio_key != cached.prio_key) {
            std::fprintf(stderr,
                         "QUASAR_VERIFY: index entry for server %zu "
                         "matches the server's change epoch but not "
                         "its state — a placement-relevant mutation "
                         "skipped bumpVersion()\n",
                         i);
            std::abort();
        }
        if (orderMaintained() && index_primed_) {
            // The maintained order must mirror the cache entry field
            // for field: the server sits in exactly one bucket whose
            // signature bitwise-matches its refreshed state.
            uint32_t slot = i < server_bucket_.size()
                                ? server_bucket_[i]
                                : kNoBucket;
            if (slot == kNoBucket) {
                std::fprintf(stderr,
                             "QUASAR_VERIFY: server %zu missing from "
                             "the maintained candidate order — a "
                             "mutation was not journaled or the order "
                             "update was skipped\n",
                             i);
                std::abort();
            }
            const OrderBucket &b = order_buckets_[slot];
            auto [fresh_cls, fresh_key] = feasibilityClass(fresh);
            if (b.platform_idx != fresh.platform_idx ||
                std::bit_cast<uint64_t>(b.speed) !=
                    std::bit_cast<uint64_t>(fresh.speed) ||
                b.sockets != fresh.sockets ||
                b.socket_contention != fresh.socket_contention ||
                b.cls != fresh_cls || b.prio_key != fresh_key ||
                b.ids.count(ServerId(i)) == 0) {
                std::fprintf(stderr,
                             "QUASAR_VERIFY: order bucket for server "
                             "%zu disagrees with its refreshed state "
                             "(bucket platform %zu speed %.17g vs "
                             "fresh platform %zu speed %.17g) — the "
                             "incremental order is stale\n",
                             i, b.platform_idx, b.speed,
                             fresh.platform_idx, fresh.speed);
                std::abort();
            }
        }
    }
    if (orderMaintained() && index_primed_) {
        // Structural sweep: every level holds the buckets that claim
        // it, level_pos back-references are exact, no bucket is empty,
        // and the member total equals the cluster size (no ghost or
        // duplicated entries).
        for (size_t p = 0; p < platform_order_.size(); ++p) {
            for (const auto &[speed, lvl] : platform_order_[p]) {
                if (lvl.empty()) {
                    std::fprintf(stderr,
                                 "QUASAR_VERIFY: empty speed level "
                                 "%.17g on platform %zu in the "
                                 "maintained order\n",
                                 speed, p);
                    std::abort();
                }
                auto check_list =
                    [&](const std::vector<uint32_t> &list,
                        FeasClass cls, int prio_key) {
                        for (size_t j = 0; j < list.size(); ++j) {
                            const OrderBucket &b =
                                order_buckets_[list[j]];
                            if (b.platform_idx != p ||
                                std::bit_cast<uint64_t>(b.speed) !=
                                    std::bit_cast<uint64_t>(speed) ||
                                b.cls != cls ||
                                b.prio_key != prio_key ||
                                b.level_pos != j || b.ids.empty()) {
                                std::fprintf(
                                    stderr,
                                    "QUASAR_VERIFY: order bucket %u "
                                    "misfiled under platform %zu "
                                    "speed %.17g class %d\n",
                                    list[j], p, speed, int(cls));
                                std::abort();
                            }
                            ordered_members += b.ids.size();
                        }
                    };
                check_list(lvl.open, FeasClass::Open, kNoPrio);
                check_list(lvl.evict, FeasClass::Evict, kNoPrio);
                for (const auto &[key, list] : lvl.prio) {
                    if (list.empty()) {
                        std::fprintf(stderr,
                                     "QUASAR_VERIFY: empty prio-class "
                                     "list (key %d) on platform %zu "
                                     "speed %.17g\n",
                                     key, p, speed);
                        std::abort();
                    }
                    check_list(list, FeasClass::Prio, key);
                }
                check_list(lvl.closed, FeasClass::Closed, kNoPrio);
            }
        }
        if (ordered_members != cluster_.size()) {
            std::fprintf(stderr,
                         "QUASAR_VERIFY: maintained order holds %zu "
                         "members for %zu servers\n",
                         ordered_members, cluster_.size());
            std::abort();
        }
    }
}
#endif

bool
GreedyScheduler::evictable(const sim::TaskShare &victim,
                           const workload::Workload &w) const
{
    if (victim.best_effort)
        return true;
    // Priority preemption (Sec. 4.4): only with registry access, and
    // only for strictly lower priority.
    if (!registry_ || !registry_->contains(victim.workload))
        return false;
    return registry_->get(victim.workload).priority < w.priority;
}

void
GreedyScheduler::priorityEvictable(const sim::Server &srv,
                                   const workload::Workload &w,
                                   int &cores, double &memory_gb,
                                   double &storage_gb) const
{
    if (!registry_)
        return;
    for (const sim::TaskShare &t : srv.tasks()) {
        if (t.best_effort)
            continue; // the cache already totals the best-effort pool
        if (!registry_->contains(t.workload))
            continue;
        if (registry_->get(t.workload).priority < w.priority) {
            cores += t.cores;
            memory_gb += t.memory_gb;
            storage_gb += t.storage_gb;
        }
    }
}

double
GreedyScheduler::serverQuality(const sim::Server &srv,
                               const WorkloadEstimate &est) const
{
    // Quality = platform speedup x predicted interference multiplier.
    // Degraded machines rank (and predict) proportionally lower; a
    // down machine is worth nothing.
    if (cfg_.full_rescan) {
        double pf = est.platform_factor[platformIndexOf(srv)];
        sim::Server::SocketSnapshot snap = srv.socketSnapshot();
        double im = bestSocketMultiplier(est, snap.contention,
                                         snap.sockets,
                                         cfg_.slope_guess);
        return pf * im * srv.speedFactor();
    }
    // Public entry point (the manager scores live placements with it
    // between decisions): replay the journal first so the entry
    // reflects any mutation since the last refresh.
    refreshIndex();
    const ServerCacheEntry &e = cache_[size_t(srv.id())];
    double pf = est.platform_factor[e.platform_idx];
    double im = bestSocketMultiplier(est, e.socket_contention, e.sockets,
                                     cfg_.slope_guess);
    return pf * im * e.speed;
}

std::vector<std::pair<double, ServerId>>
GreedyScheduler::rankedCandidates(const WorkloadEstimate &est) const
{
    std::vector<std::pair<double, ServerId>> out;
    out.reserve(cluster_.size());
    if (orderMaintained()) {
        // Drain the maintained order best-first: the emitted sequence
        // is the incremental structure's full view, which tests
        // compare against a from-scratch sort by rankedBefore.
        refreshIndex();
        OrderStream stream;
        beginOrderedCandidates(stream, est, OrderFilter::everything());
        while (auto cand = nextOrderedCandidate(stream, est))
            out.push_back(*cand);
        return out;
    }
    for (size_t i = 0; i < cluster_.size(); ++i) {
        const sim::Server &srv = cluster_.server(ServerId(i));
        out.emplace_back(serverQuality(srv, est), ServerId(i));
    }
    std::sort(out.begin(), out.end(), rankedBefore);
    return out;
}

GreedyScheduler::NodePick
GreedyScheduler::pickNodeConfig(const sim::Server &srv, const Workload &w,
                                const WorkloadEstimate &est,
                                bool count_evictable,
                                double perf_needed) const
{
    NodePick pick;
    size_t p_idx;
    int free_cores;
    double free_mem, free_storage, interf;
    // The socket-selection step: the greedy walk picks (server,
    // socket), predicting node perf from the chosen socket's view.
    // Flat servers always choose socket 0, reproducing the
    // pre-topology multiplier bit for bit.
    if (cfg_.full_rescan) {
        p_idx = platformIndexOf(srv);
        free_cores = srv.coresFree();
        free_mem = srv.memoryFree();
        free_storage = srv.storageFree();
        sim::Server::SocketSnapshot snap = srv.socketSnapshot();
        pick.socket =
            chooseSocket(est, snap.contention, snap.cores_homed,
                         snap.sockets, cfg_.socket_aware,
                         cfg_.slope_guess);
        interf = est.interferenceMultiplier(
                     snap.contention[size_t(pick.socket)],
                     cfg_.slope_guess) *
                 srv.speedFactor();
        if (count_evictable) {
            Evictable be = bestEffortTotals(srv);
            free_cores += be.cores;
            free_mem += be.memory_gb;
            free_storage += be.storage_gb;
        }
    } else {
        const ServerCacheEntry &e = cachedState(srv);
        p_idx = e.platform_idx;
        free_cores = e.free_cores;
        free_mem = e.free_mem;
        free_storage = e.free_storage;
        pick.socket =
            chooseSocket(est, e.socket_contention, e.socket_cores,
                         e.sockets, cfg_.socket_aware,
                         cfg_.slope_guess);
        interf = est.interferenceMultiplier(
                     e.socket_contention[size_t(pick.socket)],
                     cfg_.slope_guess) *
                 e.speed;
        if (count_evictable) {
            free_cores += e.be_cores;
            free_mem += e.be_mem;
            free_storage += e.be_storage;
        }
    }
    if (count_evictable) {
        priorityEvictable(srv, w, free_cores, free_mem, free_storage);
    }
    if (free_cores < 1 || free_storage < w.storage_gb_per_node)
        return pick;

    // Scan feasible columns for the best achievable node perf.
    double best_perf = 0.0;
    for (size_t c = 0; c < est.scale_up_grid.size(); ++c) {
        const auto &cfg = est.scale_up_grid[c];
        if (cfg.cores > free_cores || cfg.memory_gb > free_mem + 1e-9)
            continue;
        best_perf = std::max(best_perf,
                             est.nodePerf(p_idx, c) * interf);
    }
    if (best_perf <= 0.0)
        return pick;

    // Right-size: the cheapest column whose predicted perf reaches the
    // goal (the residual target, capped by what the server can give).
    double goal = std::min(best_perf, perf_needed);
    if (!cfg_.scale_up_first) {
        // Scale-out-first ablation: spread small slices across nodes.
        goal = std::min(goal, 0.35 * best_perf);
    }
    double threshold = cfg_.node_perf_slack * goal;

    bool found = false;
    for (size_t c = 0; c < est.scale_up_grid.size(); ++c) {
        const auto &cfg = est.scale_up_grid[c];
        if (cfg.cores > free_cores || cfg.memory_gb > free_mem + 1e-9)
            continue;
        double perf = est.nodePerf(p_idx, c) * interf;
        if (perf + 1e-12 < threshold)
            continue;
        bool better;
        if (!found) {
            better = true;
        } else if (cfg.cores != pick.cores) {
            better = cfg.cores < pick.cores;
        } else if (cfg.memory_gb != pick.memory_gb) {
            better = cfg.memory_gb < pick.memory_gb;
        } else {
            better = perf > pick.perf;
        }
        if (better) {
            pick.col = c;
            pick.cores = cfg.cores;
            pick.memory_gb = cfg.memory_gb;
            pick.perf = perf;
            found = true;
        }
    }
    pick.valid = found;
    return pick;
}

bool
GreedyScheduler::residentsTolerate(const sim::Server &srv,
                                   const WorkloadEstimate &est,
                                   double cores, int socket,
                                   const EstimateLookup &estimates) const
{
    if (!estimates)
        return true;
    // Per-socket view of the newcomer's caused pressure: full
    // strength on its home socket, attenuated by the cross-socket
    // factor elsewhere, each over that socket's capacity. The flat
    // case multiplies by exactly 1.0 (no rounding), keeping the
    // pre-topology arithmetic.
    const interference::IVector &cross = srv.crossSocketFactor();
    std::array<interference::IVector, topology::kMaxSockets> added{};
    for (int s = 0; s < srv.numSockets(); ++s) {
        const auto &cap = srv.socketCapacity(s);
        for (size_t i = 0; i < interference::kNumSources; ++i) {
            double atten = s == socket ? 1.0 : cross[i];
            added[size_t(s)][i] =
                cap[i] > 0.0
                    ? est.caused_per_core[i] * cores * atten / cap[i]
                    : 0.0;
        }
    }
    for (const sim::TaskShare &t : srv.tasks()) {
        if (t.best_effort)
            continue; // evictable anyway; protected residents only
        const WorkloadEstimate *res = estimates(t.workload);
        if (!res)
            continue;
        interference::IVector now = srv.contentionFor(t.workload);
        const interference::IVector &add = added[size_t(t.socket)];
        double loss = 1.0;
        for (size_t i = 0; i < interference::kNumSources; ++i) {
            double excess = now[i] + add[i] - res->tolerated[i];
            if (excess > 0.0)
                loss *= std::max(0.05,
                                 1.0 - cfg_.slope_guess * excess);
        }
        if (1.0 - loss > cfg_.max_resident_loss)
            return false;
    }
    return true;
}

std::optional<Allocation>
GreedyScheduler::allocate(const Workload &w, const WorkloadEstimate &est,
                          double required_perf,
                          const EstimateLookup &estimates,
                          bool may_evict) const
{
    std::optional<Allocation> decision =
        allocateImpl(w, est, required_perf, estimates, may_evict);
#ifdef QUASAR_VERIFY
    // Shadow scheduler oracle: every incremental-mode decision is
    // re-derived through the legacy full_rescan path; any divergence
    // aborts. full_rescan decisions are the oracle, so they are never
    // shadowed (also what makes this non-recursive).
    if (!cfg_.full_rescan)
        verify::shadowCheckAllocation(cluster_, cfg_, registry_, w,
                                      est, required_perf, estimates,
                                      may_evict, decision);
#endif
    return decision;
}

std::optional<Allocation>
GreedyScheduler::allocateImpl(const Workload &w,
                              const WorkloadEstimate &est,
                              double required_perf,
                              const EstimateLookup &estimates,
                              bool may_evict) const
{
    assert(est.scale_up_grid.size() == est.scale_up_perf.size());
    const double target = std::max(required_perf, 1e-9) * cfg_.headroom;
    const int max_nodes =
        workload::isDistributed(w.type)
            ? std::min<int>(cfg_.max_nodes, int(cluster_.size()))
            : 1;

    // Rank candidate servers by decreasing quality. The full_rescan
    // path scores and sorts everything up front; the dirty path never
    // even touches servers that did not change — it streams best-first
    // from the maintained per-platform order, so a placement that
    // settles after k servers costs O(dirty + expanded levels + k log
    // buckets).
    std::vector<std::pair<double, ServerId>> ranked;
    OrderStream stream;
    const bool dirty = orderMaintained();
    {
        stats::ScopedTimer timer(timing_.rank);
        if (dirty) {
            refreshIndex();
            // The maintained order partitions members by feasibility
            // class, so the drain below emits exactly the servers the
            // full_rescan rank-time filter admits — the proven
            // placement-preserving predicate — and skips saturated
            // levels wholesale instead of emitting servers only for
            // pickNodeConfig to reject them one by one.
            OrderFilter filter;
            filter.evict = may_evict;
            if (may_evict && registry_)
                filter.prio_below = w.priority;
            beginOrderedCandidates(stream, est, filter);
        } else {
            ranked.reserve(cluster_.size());
            for (size_t i = 0; i < cluster_.size(); ++i) {
                const sim::Server &srv = cluster_.server(ServerId(i));
                bool avail = srv.available();
                int free = srv.coresFree();
                if (avail && may_evict)
                    free += bestEffortTotals(srv).cores;
                // The resident-ledger walk only ADDS evictable
                // capacity and the filter below is `free < 1`, so a
                // server already over the bar never needs it.
                if (avail && free < 1 && may_evict && registry_) {
                    double pm = 0.0, ps = 0.0;
                    priorityEvictable(srv, w, free, pm, ps);
                }
                if (!avail || free < 1)
                    continue; // down machines accept no placements
                ranked.emplace_back(serverQuality(srv, est), ServerId(i));
            }
            std::sort(ranked.begin(), ranked.end(), rankedBefore);
        }
    }

    // nth(i): the i-th best candidate, or nullopt past the end. The
    // full_rescan path indexes its sorted vector; the dirty path pulls
    // from the order stream, memoizing into `ranked` so the fault-zone
    // relaxation pass can rewind. Both present the identical order
    // rankedBefore defines over the identical candidate set: the dirty
    // stream's class filter is the same predicate full_rescan applies
    // at rank time (down machines and servers without a free or
    // evictable core are never emitted), so the chosen nodes are
    // bit-identical across modes.
    auto nth =
        [&](size_t i) -> std::optional<std::pair<double, ServerId>> {
        while (dirty && ranked.size() <= i) {
            auto cand = nextOrderedCandidate(stream, est);
            if (!cand)
                return std::nullopt;
            ranked.push_back(*cand);
        }
        if (i >= ranked.size())
            return std::nullopt;
        return ranked[i];
    };

    stats::ScopedTimer timer(timing_.place);
    Allocation alloc;
    std::vector<double> node_perfs;
    const FrameworkKnobs *knob_filter = nullptr;
    FrameworkKnobs chosen_knobs;
    double cost_so_far = 0.0;
    std::vector<char> zone_used(
        size_t(std::max(cluster_.numFaultZones(), 1)), 0);

    // With fault-zone spreading the candidates are walked twice: the
    // first pass only takes servers in fresh zones; the second pass
    // relaxes the constraint if the target is still unmet. A server
    // already chosen in pass one is never picked again (each candidate
    // contributes at most one node per allocation).
    const int passes = cfg_.spread_fault_zones ? 2 : 1;
    bool done = false;
    for (int pass = 0; pass < passes && !done; ++pass) {
        for (size_t i = 0;; ++i) {
            if (int(alloc.nodes.size()) >= max_nodes) {
                done = true;
                break;
            }
            double predicted = est.jobPerf(node_perfs);
            if (predicted >= target) {
                done = true;
                break;
            }

            auto cand = nth(i);
            if (!cand)
                break; // candidates exhausted; maybe relax zones
            const auto [quality, sid] = *cand;
            (void)quality;
            const sim::Server &srv = cluster_.server(sid);
            if (srv.hosts(w.id))
                continue;
            bool already_chosen = false;
            for (const AllocationNode &n : alloc.nodes)
                already_chosen = already_chosen || n.server == sid;
            if (already_chosen)
                continue;
            if (cfg_.spread_fault_zones && pass == 0 &&
                zone_used[size_t(srv.faultZone())])
                continue; // first pass: fresh zones only
            // Per-node perf needed to close the gap if this node joins.
            int n_next = int(node_perfs.size()) + 1;
            double eff = est.scaleOutSpeedupAt(n_next) / double(n_next);
            double sum_now = 0.0;
            for (double v : node_perfs)
                sum_now += v;
            double needed =
                eff > 0.0 ? target / eff - sum_now
                          : std::numeric_limits<double>::infinity();
            needed = std::max(needed, 1e-9);

            NodePick pick =
                pickNodeConfig(srv, w, est, may_evict, needed);
            if (!pick.valid)
                continue;
            if (knob_filter &&
                !(est.scale_up_grid[pick.col].knobs == *knob_filter)) {
                // Keep one knob setting across the job: re-scan
                // restricted to matching columns by rejecting
                // mismatches.
                size_t p_idx = platformIndexOf(srv);
                double interf;
                if (cfg_.full_rescan) {
                    sim::Server::SocketSnapshot snap =
                        srv.socketSnapshot();
                    interf = est.interferenceMultiplier(
                                 snap.contention[size_t(pick.socket)],
                                 cfg_.slope_guess) *
                             srv.speedFactor();
                } else {
                    const ServerCacheEntry &e = cachedState(srv);
                    interf =
                        est.interferenceMultiplier(
                            e.socket_contention[size_t(pick.socket)],
                            cfg_.slope_guess) *
                        e.speed;
                }
                bool fixed = false;
                for (size_t c = 0; c < est.scale_up_grid.size(); ++c) {
                    const auto &cfg = est.scale_up_grid[c];
                    if (!(cfg.knobs == *knob_filter))
                        continue;
                    if (cfg.cores != pick.cores ||
                        cfg.memory_gb != pick.memory_gb)
                        continue;
                    pick.col = c;
                    pick.perf = est.nodePerf(p_idx, c) * interf;
                    fixed = true;
                    break;
                }
                if (!fixed)
                    continue;
            }
            if (!residentsTolerate(srv, est, pick.cores, pick.socket,
                                   estimates))
                continue;

            // Diminishing returns: when this node's marginal
            // contribution falls well below what it would deliver
            // standalone, the scale-out knee has passed and further
            // servers are wasted (checked before planning evictions so
            // no one is evicted for a node that is never placed).
            if (!node_perfs.empty() && pick.perf > 0.0) {
                std::vector<double> with_node = node_perfs;
                with_node.push_back(pick.perf);
                double gain =
                    est.jobPerf(with_node) - est.jobPerf(node_perfs);
                if (gain < cfg_.min_marginal_efficiency * pick.perf) {
                    done = true;
                    break;
                }
            }

            // Plan evictions when the raw free capacity is
            // insufficient — into a local list, committed only once
            // the node clears every remaining check. Nothing may land
            // in alloc.evictions for a node that is rejected later
            // (cost cap) or for a server revisited by the relaxed
            // spreading pass, or the same share would be consumed
            // twice in one schedule call.
            std::vector<std::pair<ServerId, WorkloadId>> planned;
            int base_free_cores;
            double base_free_mem;
            if (cfg_.full_rescan) {
                base_free_cores = srv.coresFree();
                base_free_mem = srv.memoryFree();
            } else {
                const ServerCacheEntry &e = cachedState(srv);
                base_free_cores = e.free_cores;
                base_free_mem = e.free_mem;
            }
            if (may_evict && (pick.cores > base_free_cores ||
                              pick.memory_gb > base_free_mem + 1e-9)) {
                int need_cores = pick.cores - base_free_cores;
                double need_mem = pick.memory_gb - base_free_mem;
                // Evict best-effort first, then ascending priority,
                // and larger shares before smaller ones.
                std::vector<const sim::TaskShare *> be;
                for (const sim::TaskShare &t : srv.tasks())
                    if (evictable(t, w))
                        be.push_back(&t);
                auto prio = [&](const sim::TaskShare *t) {
                    if (t->best_effort || !registry_ ||
                        !registry_->contains(t->workload))
                        return std::numeric_limits<int>::min();
                    return registry_->get(t->workload).priority;
                };
                std::sort(be.begin(), be.end(),
                          [&](const auto *a, const auto *b) {
                              if (prio(a) != prio(b))
                                  return prio(a) < prio(b);
                              return a->cores > b->cores;
                          });
                for (const sim::TaskShare *t : be) {
                    if (need_cores <= 0 && need_mem <= 1e-9)
                        break;
                    planned.emplace_back(sid, t->workload);
                    need_cores -= t->cores;
                    need_mem -= t->memory_gb;
                }
                if (need_cores > 0 || need_mem > 1e-9)
                    continue; // still does not fit
            }

            // Cost target (Sec. 4.4): never exceed the spending cap.
            // Checked before anything is committed so a rejection
            // leaves no trace.
            if (w.cost_cap_per_hour > 0.0) {
                double node_cost = srv.platform().cost_per_hour *
                                   double(pick.cores) /
                                   double(srv.platform().cores);
                if (cost_so_far + node_cost > w.cost_cap_per_hour)
                    continue;
                cost_so_far += node_cost;
            }

            if (alloc.nodes.empty()) {
                chosen_knobs = est.scale_up_grid[pick.col].knobs;
                if (w.type == workload::WorkloadType::Analytics)
                    knob_filter = &chosen_knobs;
            }
            alloc.evictions.insert(alloc.evictions.end(),
                                   planned.begin(), planned.end());
            alloc.nodes.push_back({sid, pick.col, pick.cores,
                                   pick.memory_gb, pick.perf,
                                   pick.socket});
            node_perfs.push_back(pick.perf);
            zone_used[size_t(srv.faultZone())] = 1;
        }
    }

    if (alloc.nodes.empty())
        return std::nullopt;

    alloc.knobs = chosen_knobs;
    alloc.predicted_perf = est.jobPerf(node_perfs);
    alloc.degraded = alloc.predicted_perf + 1e-9 <
                     required_perf * cfg_.headroom * cfg_.node_perf_slack;
    return alloc;
}

} // namespace quasar::core
