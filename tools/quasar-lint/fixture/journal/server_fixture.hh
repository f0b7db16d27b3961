/**
 * @file
 * Deliberate violations of the mutation-journaling rule. A miniature
 * journaled class named Server (the rule keys on the class name plus
 * a src/sim// fixture/ path): every non-const member function that
 * writes a placement-relevant field must call bumpVersion().
 */

#pragma once

#include <vector>

class Server
{
  public:
    void journaledAssign(int v)
    {
        state_ = v;
        bumpVersion();
    }

    void journaledContainer(int v)
    {
        tasks_.push_back(v);
        bumpVersion();
    }

    void unjournaledAssign(int v) { state_ = v; } // expect(mutation-journaling)

    void unjournaledPush(int v)
    {
        tasks_.push_back(v); // expect(mutation-journaling)
    }

    void sanctionedEscape()
    {
        // quasar-lint: allow(mutation-journaling)
        speed_factor_ = 0.5;
    }

    int reader() const { return state_; }

    // Journaled correctly, but deliberately missing from this
    // fixture's journaled_mutators.def — the list cross-check flags
    // the definition.
    void unlisted(int v) // expect(mutation-journaling)
    {
        state_ = v;
        bumpVersion();
    }

    // A resident move that reaches around the journal. Every reader
    // cursor replays the journal to stay coherent, so an unjournaled
    // write desyncs all of them at once — the generic unjournaled-
    // mutation rule must flag it.
    void crossShardSteal(int v)
    {
        tasks_.push_back(v); // expect(mutation-journaling)
        state_ = v;
    }

    void bumpVersion() { ++version_; }

  private:
    std::vector<int> tasks_;
    int state_ = 0;
    double speed_factor_ = 1.0;
    int version_ = 0;
};
