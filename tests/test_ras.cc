/** @file Unit tests for the hardware RAS and its RnR-Safe extensions. */

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "common/log.h"
#include "cpu/ras.h"

namespace rsafe::cpu {
namespace {

TEST(Ras, PushPopHit)
{
    Ras ras(8);
    ras.push(0x100);
    ras.push(0x200);
    Addr predicted = 0;
    EXPECT_EQ(ras.predict(0x999, 0x200, &predicted), RasPredict::kHit);
    EXPECT_EQ(predicted, 0x200u);
    EXPECT_EQ(ras.predict(0x999, 0x100, &predicted), RasPredict::kHit);
    EXPECT_EQ(ras.size(), 0u);
}

TEST(Ras, Mispredict)
{
    Ras ras(8);
    ras.push(0x100);
    Addr predicted = 0;
    EXPECT_EQ(ras.predict(0x999, 0xbad, &predicted),
              RasPredict::kMispredict);
    EXPECT_EQ(predicted, 0x100u);  // the popped (wrong) prediction
}

TEST(Ras, UnderflowOnEmpty)
{
    Ras ras(8);
    Addr predicted = 7;
    EXPECT_EQ(ras.predict(0x999, 0x100, &predicted),
              RasPredict::kUnderflow);
    EXPECT_EQ(predicted, 0u);
}

TEST(Ras, EvictsOldestWhenFull)
{
    Ras ras(3);
    EXPECT_FALSE(ras.push(1).has_value());
    EXPECT_FALSE(ras.push(2).has_value());
    EXPECT_FALSE(ras.push(3).has_value());
    const auto evicted = ras.push(4);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 1u);  // bottom (oldest) entry leaves first
    EXPECT_EQ(ras.size(), 3u);
    Addr predicted;
    EXPECT_EQ(ras.predict(0, 4, &predicted), RasPredict::kHit);
    EXPECT_EQ(ras.predict(0, 3, &predicted), RasPredict::kHit);
    EXPECT_EQ(ras.predict(0, 2, &predicted), RasPredict::kHit);
    // Entry 1 was evicted: its pop underflows.
    EXPECT_EQ(ras.predict(0, 1, &predicted), RasPredict::kUnderflow);
}

TEST(Ras, WhitelistedReturnDoesNotPop)
{
    Ras ras(8);
    ras.set_ret_whitelist({0x500});
    ras.set_tar_whitelist({0xA0, 0xB0});
    ras.push(0x100);
    Addr predicted;
    EXPECT_EQ(ras.predict(0x500, 0xA0, &predicted),
              RasPredict::kWhitelisted);
    EXPECT_EQ(ras.size(), 1u);  // untouched
    EXPECT_EQ(ras.predict(0x999, 0x100, &predicted), RasPredict::kHit);
}

TEST(Ras, WhitelistedReturnWithIllegalTarget)
{
    Ras ras(8);
    ras.set_ret_whitelist({0x500});
    ras.set_tar_whitelist({0xA0});
    Addr predicted;
    EXPECT_EQ(ras.predict(0x500, 0xBAD, &predicted),
              RasPredict::kWhitelistMiss);
}

TEST(Ras, WhitelistCanBeDisabled)
{
    Ras ras(8);
    ras.set_ret_whitelist({0x500});
    ras.set_tar_whitelist({0xA0});
    ras.set_whitelist_enabled(false);
    ras.push(0xA0);
    Addr predicted;
    // With the whitelist off, the whitelisted ret behaves like any other.
    EXPECT_EQ(ras.predict(0x500, 0xA0, &predicted), RasPredict::kHit);
}

TEST(Ras, SaveAndClearThenLoad)
{
    Ras ras(8);
    ras.push(1);
    ras.push(2);
    const SavedRas saved = ras.save_and_clear();
    EXPECT_EQ(ras.size(), 0u);
    ASSERT_EQ(saved.entries.size(), 2u);
    EXPECT_EQ(saved.entries[0].addr, 1u);
    EXPECT_EQ(saved.entries[1].addr, 2u);

    ras.load(saved);
    EXPECT_EQ(ras.size(), 2u);
    Addr predicted;
    // Restored entries predict correctly and carry the restored tag.
    EXPECT_EQ(ras.predict(0, 2, &predicted), RasPredict::kHitRestored);
    EXPECT_EQ(ras.predict(0, 1, &predicted), RasPredict::kHitRestored);
}

TEST(Ras, PeekDoesNotClear)
{
    Ras ras(8);
    ras.push(1);
    const SavedRas saved = ras.peek();
    EXPECT_EQ(saved.entries.size(), 1u);
    EXPECT_EQ(ras.size(), 1u);
}

TEST(Ras, FreshPushesAreNotTaggedRestored)
{
    Ras ras(8);
    ras.load(SavedRas{{RasEntry{1, false}}});
    ras.push(2);
    Addr predicted;
    EXPECT_EQ(ras.predict(0, 2, &predicted), RasPredict::kHit);
    EXPECT_EQ(ras.predict(0, 1, &predicted), RasPredict::kHitRestored);
}

TEST(Ras, LoadTruncatesToDepth)
{
    Ras ras(2);
    SavedRas big;
    for (Addr i = 1; i <= 5; ++i)
        big.entries.push_back(RasEntry{i, false});
    ras.load(big);
    EXPECT_EQ(ras.size(), 2u);
    Addr predicted;
    // The newest entries (4, 5) survive.
    EXPECT_EQ(ras.predict(0, 5, &predicted), RasPredict::kHitRestored);
    EXPECT_EQ(ras.predict(0, 4, &predicted), RasPredict::kHitRestored);
}

TEST(Ras, ZeroDepthRejected)
{
    EXPECT_THROW(Ras(0), FatalError);
}

TEST(Ras, ClearEmpties)
{
    Ras ras(8);
    ras.push(1);
    ras.clear();
    EXPECT_EQ(ras.size(), 0u);
}

/** Property sweep: a depth-N RAS models perfectly nested calls exactly. */
class RasDepthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RasDepthSweep, PerfectNestingWithinDepthNeverMispredicts)
{
    const std::size_t depth = GetParam();
    Ras ras(depth);
    // Call chain exactly as deep as the RAS.
    for (std::size_t i = 0; i < depth; ++i)
        EXPECT_FALSE(ras.push(0x1000 + i).has_value());
    Addr predicted;
    for (std::size_t i = depth; i-- > 0;) {
        ASSERT_EQ(ras.predict(0, 0x1000 + i, &predicted), RasPredict::kHit)
            << "depth " << depth << " entry " << i;
    }
}

TEST_P(RasDepthSweep, OverflowLosesExactlyTheOldest)
{
    const std::size_t depth = GetParam();
    Ras ras(depth);
    const std::size_t pushes = depth + 3;
    std::size_t evictions = 0;
    for (std::size_t i = 0; i < pushes; ++i)
        if (ras.push(i).has_value())
            ++evictions;
    EXPECT_EQ(evictions, 3u);
    Addr predicted;
    std::size_t hits = 0;
    for (std::size_t i = pushes; i-- > 0;) {
        if (ras.predict(0, i, &predicted) == RasPredict::kHit)
            ++hits;
    }
    EXPECT_EQ(hits, depth);
}

INSTANTIATE_TEST_SUITE_P(Depths, RasDepthSweep,
                         ::testing::Values(1, 2, 4, 16, 32, 48, 64));

/**
 * Reference model: the RAS as a bottom-first vector whose push erases
 * the front when full, with hash-set whitelists. The ring must agree
 * with it on every outcome, prediction, eviction and saved image.
 */
class RefRas {
  public:
    explicit RefRas(std::size_t depth) : depth_(depth) {}

    std::optional<Addr> push(Addr addr)
    {
        std::optional<Addr> evicted;
        if (stack_.size() == depth_) {
            evicted = stack_.front().addr;
            stack_.erase(stack_.begin());
        }
        stack_.push_back(RasEntry{addr, false});
        return evicted;
    }

    RasPredict predict(Addr ret_pc, Addr target, Addr* predicted)
    {
        *predicted = 0;
        if (whitelist_enabled_ && ret_whitelist_.count(ret_pc)) {
            return tar_whitelist_.count(target) ? RasPredict::kWhitelisted
                                                : RasPredict::kWhitelistMiss;
        }
        if (stack_.empty())
            return RasPredict::kUnderflow;
        const RasEntry top = stack_.back();
        stack_.pop_back();
        *predicted = top.addr;
        if (top.addr != target)
            return RasPredict::kMispredict;
        return top.restored ? RasPredict::kHitRestored : RasPredict::kHit;
    }

    std::vector<RasEntry> peek() const { return stack_; }

    std::vector<RasEntry> save_and_clear()
    {
        std::vector<RasEntry> saved = std::move(stack_);
        stack_.clear();
        return saved;
    }

    void load(const std::vector<RasEntry>& saved)
    {
        stack_.clear();
        for (const auto& entry : saved) {
            if (stack_.size() == depth_)
                stack_.erase(stack_.begin());
            stack_.push_back(RasEntry{entry.addr, true});
        }
    }

    void clear() { stack_.clear(); }
    std::size_t size() const { return stack_.size(); }

    bool whitelist_enabled_ = true;
    std::unordered_set<Addr> ret_whitelist_;
    std::unordered_set<Addr> tar_whitelist_;

  private:
    std::size_t depth_;
    std::vector<RasEntry> stack_;
};

void
expect_same_entries(const std::vector<RasEntry>& ring,
                    const std::vector<RasEntry>& ref, int step)
{
    ASSERT_EQ(ring.size(), ref.size()) << "step " << step;
    for (std::size_t i = 0; i < ring.size(); ++i) {
        EXPECT_EQ(ring[i].addr, ref[i].addr) << "step " << step << " #" << i;
        EXPECT_EQ(ring[i].restored, ref[i].restored)
            << "step " << step << " #" << i;
    }
}

/** (depth, whitelists enabled); the whitelists are always installed */
class RasDifferential
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};

TEST_P(RasDifferential, RingMatchesVectorModel)
{
    const auto [depth, whitelists] = GetParam();
    Ras ras(depth);
    RefRas ref(depth);
    // Small address pools so predictions hit as often as they miss.
    constexpr Addr kWhitelistedRet = 0x500;
    const std::vector<Addr> targets = {0xA0, 0xB0, 0xC0};
    ras.set_ret_whitelist({kWhitelistedRet});
    ras.set_tar_whitelist({0xA0, 0xB0});
    ras.set_whitelist_enabled(whitelists);
    ref.ret_whitelist_ = {kWhitelistedRet};
    ref.tar_whitelist_ = {0xA0, 0xB0};
    ref.whitelist_enabled_ = whitelists;

    std::mt19937_64 rng(0x5eed + depth * 2 + (whitelists ? 1 : 0));
    const auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    std::vector<std::vector<RasEntry>> saved_images;
    std::size_t evictions = 0;
    std::size_t hits = 0;
    std::size_t underflows = 0;
    for (int step = 0; step < 20000; ++step) {
        // Phases of 1000 steps alternate between filling the RAS past
        // its depth and draining it below empty.
        const std::size_t push_share = (step / 1000) % 2 == 0 ? 70 : 25;
        const std::size_t op = pick(100);
        if (op < push_share) {
            const Addr addr = targets[pick(targets.size())] + pick(4);
            const auto got = ras.push(addr);
            const auto want = ref.push(addr);
            ASSERT_EQ(got, want) << "push, step " << step;
            evictions += want.has_value() ? 1 : 0;
            EXPECT_EQ(ras.full(), ref.size() == depth) << "step " << step;
        } else if (op < 93) {
            const Addr ret_pc = pick(4) == 0 ? kWhitelistedRet : 0x900;
            const Addr target = targets[pick(targets.size())] + pick(4);
            Addr got_pred = 1;
            Addr want_pred = 2;
            const bool quiet = ras.would_predict(ret_pc, target);
            const RasPredict got = ras.predict(ret_pc, target, &got_pred);
            const RasPredict want = ref.predict(ret_pc, target, &want_pred);
            ASSERT_EQ(got, want) << "predict, step " << step;
            EXPECT_EQ(got_pred, want_pred) << "step " << step;
            EXPECT_EQ(quiet, want == RasPredict::kHit ||
                                 want == RasPredict::kHitRestored ||
                                 want == RasPredict::kWhitelisted)
                << "would_predict, step " << step;
            hits += want == RasPredict::kHit ||
                            want == RasPredict::kHitRestored
                        ? 1
                        : 0;
            underflows += want == RasPredict::kUnderflow ? 1 : 0;
        } else if (op < 97) {
            const SavedRas image = ras.peek();
            expect_same_entries(image.entries, ref.peek(), step);
            saved_images.push_back(image.entries);
        } else if (op < 98) {
            const SavedRas image = ras.save_and_clear();
            expect_same_entries(image.entries, ref.save_and_clear(), step);
            saved_images.push_back(image.entries);
        } else if (pick(10) != 0) {
            // Reload a saved image, sometimes one larger than the depth
            // (two images back to back) so load() must truncate.
            std::vector<RasEntry> image;
            if (!saved_images.empty()) {
                image = saved_images[pick(saved_images.size())];
                if (pick(2) == 0) {
                    const auto& more = saved_images[pick(saved_images.size())];
                    image.insert(image.end(), more.begin(), more.end());
                }
            }
            ras.load(SavedRas{image});
            ref.load(image);
        } else {
            ras.clear();
            ref.clear();
        }
        ASSERT_EQ(ras.size(), ref.size()) << "step " << step;
    }
    expect_same_entries(ras.peek().entries, ref.peek(), -1);
    EXPECT_GT(evictions, 0u);
    EXPECT_GT(hits, 0u);
    EXPECT_GT(underflows, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    DepthsAndWhitelists, RasDifferential,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{48}),
                       ::testing::Bool()));

}  // namespace
}  // namespace rsafe::cpu
