// Fixture decision cone: GreedyScheduler entry points pull helpers
// defined OUTSIDE the decision dirs into the decision-purity scope.
// The helpers (and the one deliberately unreachable function) live in
// cone/helpers.hh.

#include "cone/helpers.hh"

class GreedyScheduler
{
  public:
    void allocate() { eqHelper(); }
    void refreshIndex()
    {
        iterHelper();
        toleratedHelper();
    }
    void entryFor() { chainHelper(); }
};
