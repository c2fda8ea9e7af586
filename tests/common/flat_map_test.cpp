/**
 * @file
 * FlatMap against std::unordered_map: random insert / erase / find
 * sequences (erase exercises the backward-shift deletion across probe
 * runs that wrap the slot array), and copies that stay independent.
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "common/flat_map.hpp"
#include "common/random.hpp"

namespace rev
{
namespace
{

TEST(FlatMap, MatchesUnorderedMapUnderRandomInsertEraseFind)
{
    Rng rng(7);
    FlatMap<u64, u64> flat;
    std::unordered_map<u64, u64> ref;
    for (int step = 0; step < 200000; ++step) {
        // A small key space keeps probe runs long and erases frequent.
        const u64 key = rng.below(300) * 4096;
        switch (rng.below(3)) {
          case 0:
            flat[key] = static_cast<u64>(step);
            ref[key] = static_cast<u64>(step);
            break;
          case 1:
            EXPECT_EQ(flat.erase(key), ref.erase(key) == 1);
            break;
          default: {
            const u64 *v = flat.find(key);
            const auto it = ref.find(key);
            ASSERT_EQ(v != nullptr, it != ref.end()) << step;
            if (v) {
                EXPECT_EQ(*v, it->second);
            }
            break;
          }
        }
        ASSERT_EQ(flat.size(), ref.size()) << step;
    }
    for (u64 k = 0; k < 300; ++k)
        EXPECT_EQ(flat.contains(k * 4096), ref.count(k * 4096) == 1);
}

TEST(FlatMap, SetInsertReportsNewKeysAndCopiesAreIndependent)
{
    FlatSet<u64> set;
    for (u64 k = 0; k < 100; ++k)
        EXPECT_TRUE(set.insert(k));
    EXPECT_FALSE(set.insert(42));
    EXPECT_EQ(set.size(), 100u);

    FlatSet<u64> copy = set;
    copy.erase(42);
    copy.insert(1000);
    EXPECT_TRUE(set.contains(42));
    EXPECT_FALSE(set.contains(1000));
    EXPECT_FALSE(copy.contains(42));
    EXPECT_EQ(copy.size(), 100u);

    set.clear();
    EXPECT_EQ(set.size(), 0u);
    EXPECT_FALSE(set.contains(0));
    EXPECT_TRUE(set.insert(0));
}

} // namespace
} // namespace rev
