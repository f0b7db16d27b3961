#include "core/admission.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace quasar::core
{

void
AdmissionQueue::applyBackoff(Entry &e, double t)
{
    if (e.backoff_s <= 0.0)
        return;
    double delay = std::min(e.backoff_s * std::pow(2.0, e.attempts),
                            e.backoff_max_s);
    ++e.attempts;
    e.not_before = t + delay;
}

void
AdmissionQueue::enqueue(WorkloadId id, double t)
{
    // Re-enqueue after a failed retry keeps the original wait start
    // (and the backoff policy the entry was created with).
    for (size_t i = 0; i < in_retry_.size(); ++i) {
        if (in_retry_[i].id == id) {
            Entry e = in_retry_[i];
            in_retry_.erase(in_retry_.begin() + long(i));
            applyBackoff(e, t);
            pending_.push_back(e);
            return;
        }
    }
    assert(!contains(id));
    pending_.push_back({id, t, 0, 0.0, 0.0, 0.0});
}

void
AdmissionQueue::enqueueWithBackoff(WorkloadId id, double t, double base_s,
                                   double max_s)
{
    for (size_t i = 0; i < in_retry_.size(); ++i) {
        if (in_retry_[i].id == id) {
            Entry e = in_retry_[i];
            in_retry_.erase(in_retry_.begin() + long(i));
            e.backoff_s = base_s;
            e.backoff_max_s = max_s;
            applyBackoff(e, t);
            pending_.push_back(e);
            return;
        }
    }
    assert(!contains(id));
    Entry e{id, t, 0, 0.0, base_s, max_s};
    applyBackoff(e, t);
    pending_.push_back(e);
}

std::vector<WorkloadId>
AdmissionQueue::drainForRetry(double now)
{
    // Entries move to in_retry_ (appending, so a nested drain during
    // an in-progress retry pass neither duplicates nor drops entries)
    // and return to pending_ via enqueue() if the retry fails.
    std::vector<WorkloadId> out;
    std::vector<Entry> not_due;
    for (Entry &e : pending_) {
        // The aging guard trumps backoff: an entry past its age limit
        // is due no matter how far its retry timer was pushed out.
        bool aged = aging_limit_s_ > 0.0 &&
                    now - e.enqueued_at >= aging_limit_s_;
        if (e.not_before <= now || aged) {
            out.push_back(e.id);
            in_retry_.push_back(e);
        } else {
            not_due.push_back(e);
        }
    }
    pending_ = std::move(not_due);
    return out;
}

void
AdmissionQueue::admitted(WorkloadId id, double t)
{
    auto it = std::find_if(in_retry_.begin(), in_retry_.end(),
                           [id](const Entry &e) { return e.id == id; });
    if (it == in_retry_.end()) {
        it = std::find_if(pending_.begin(), pending_.end(),
                          [id](const Entry &e) { return e.id == id; });
        if (it == pending_.end())
            return; // was never queued; zero wait
        waits_.add(t - it->enqueued_at);
        pending_.erase(it);
        return;
    }
    waits_.add(t - it->enqueued_at);
    in_retry_.erase(it);
}

void
AdmissionQueue::abandon(WorkloadId id)
{
    auto drop = [id](std::vector<Entry> &v) {
        v.erase(std::remove_if(v.begin(), v.end(),
                               [id](const Entry &e) {
                                   return e.id == id;
                               }),
                v.end());
    };
    drop(pending_);
    drop(in_retry_);
}

double
AdmissionQueue::enqueuedAt(WorkloadId id) const
{
    // A retry pass asks about the entry at the front of in_retry_, so
    // scan that list first: O(1) per retry instead of a walk over the
    // whole pending list. An id sits in at most one list (enqueue
    // asserts it), so the order cannot change the answer.
    for (const Entry &e : in_retry_)
        if (e.id == id)
            return e.enqueued_at;
    for (const Entry &e : pending_)
        if (e.id == id)
            return e.enqueued_at;
    return -1.0;
}

bool
AdmissionQueue::contains(WorkloadId id) const
{
    for (const Entry &e : pending_)
        if (e.id == id)
            return true;
    for (const Entry &e : in_retry_)
        if (e.id == id)
            return true;
    return false;
}

} // namespace quasar::core
