/**
 * @file
 * Helpers reachable (and one deliberately not reachable) from the
 * fixture GreedyScheduler in cone/sched.cc. This directory is NOT a
 * decision dir, so the dir-scoped float-eq/unordered-iter rules stay
 * silent here — only the cone-scoped decision-purity rule fires, and
 * only inside the reachable functions.
 */

#pragma once

#include <unordered_map>

inline bool
eqHelper()
{
    double x = 0.5;
    return x == 0.25; // expect(decision-purity)
}

inline int
iterHelper()
{
    std::unordered_map<int, int> table;
    table[1] = 2;
    int sum = 0;
    for (const auto &kv : table) // expect(decision-purity)
        sum += kv.second;
    return sum;
}

inline bool
toleratedHelper()
{
    double t = 0.0;
    // quasar-lint: allow(decision-purity)
    return t == 0.5;
}

inline bool
deepHelper()
{
    double y = 1.0;
    return y != 2.0; // expect(decision-purity)
}

inline bool
chainHelper()
{
    return deepHelper(); // transitive edge into the cone
}

// Reachable from no entry point: the identical compare below must NOT
// fire — the cone is call-graph-scoped, not directory-scoped.
inline bool
unreachableHelper()
{
    double w = 3.0;
    return w == 3.0;
}
