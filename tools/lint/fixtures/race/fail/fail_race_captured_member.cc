// The parallel body's own closure captures a stack struct by reference
// and accumulates into one of its fields: GIMPLE stores through the
// loaded capture pointer (_1->count = _3), and every lane shares it.
#include <cstddef>

#include "util/annotations.hh"

namespace fixture {

struct Stats
{
    long count = 0;
};

long
countBroken(size_t n)
{
    Stats stats;
    auto body = [&](size_t i) {
        LS_PARALLEL_BODY();
        stats.count += static_cast<long>(i); // EXPECT(race)
    };
    for (size_t i = 0; i < n; ++i)
        body(i);
    return stats.count;
}

} // namespace fixture
