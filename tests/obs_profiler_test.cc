/**
 * @file
 * Sampling profiler: attribution rules (running / recent / idle),
 * folded-stack export, and a multi-threaded stress run that hammers
 * ActivityScope publication from worker threads while the main thread
 * samples — the TSAN job runs this via the `concurrency` label.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/profiler.hh"

using namespace hydra;
using namespace hydra::obs;

namespace {

/** Fresh profiler state per test; slots/labels stay interned. */
class ProfilerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Profiler::instance().disable();
        Profiler::instance().clear();
    }
    void
    TearDown() override
    {
        Profiler::instance().disable();
        Profiler::instance().clear();
    }
};

} // namespace

TEST_F(ProfilerTest, DisabledScopeIsNoop)
{
    SiteActivitySlot *slot =
        Profiler::instance().slotFor("prof.disabled");
    const ActivityLabel *label =
        Profiler::instance().intern("oc", "call");
    {
        ActivityScope scope(slot, label);
        EXPECT_EQ(slot->current.load(), nullptr);
    }
    EXPECT_EQ(slot->lastEndNs.load(), 0u);
}

TEST_F(ProfilerTest, SamplesRunningScope)
{
    Profiler &profiler = Profiler::instance();
    profiler.enable(100);
    SiteActivitySlot *slot = profiler.slotFor("prof.running");
    const ActivityLabel *label = profiler.intern("tivo.X", "data");

    ActivityScope scope(slot, label);
    profiler.sample(1000);
    scope.finish(1000);

    const std::string folded = profiler.foldedStacks();
    EXPECT_NE(folded.find("prof.running;tivo.X;data 1"),
              std::string::npos)
        << folded;
    EXPECT_EQ(profiler.samplesTaken(), 1u);
}

TEST_F(ProfilerTest, RecentWorkAttributesWithinOneInterval)
{
    Profiler &profiler = Profiler::instance();
    profiler.enable(100);
    SiteActivitySlot *slot = profiler.slotFor("prof.recent");
    const ActivityLabel *label = profiler.intern("tivo.Y", "call");

    {
        ActivityScope scope(slot, label);
        scope.finish(1000);
    }
    // 1050 is within one interval of the scope's end: still tivo.Y.
    profiler.sample(1050);
    // 1101 is past the window: the site reads idle.
    profiler.sample(1101);

    const std::string folded = profiler.foldedStacks();
    EXPECT_NE(folded.find("prof.recent;tivo.Y;call 1"),
              std::string::npos)
        << folded;
    EXPECT_NE(folded.find("prof.recent;idle 1"), std::string::npos)
        << folded;
}

TEST_F(ProfilerTest, AbandonedScopeLeavesLastEndUntouched)
{
    Profiler &profiler = Profiler::instance();
    profiler.enable(100);
    SiteActivitySlot *slot = profiler.slotFor("prof.abandoned");
    const ActivityLabel *label = profiler.intern("tivo.Z", "mgmt");
    {
        // Error path: the destructor runs without finish(endNs).
        ActivityScope scope(slot, label);
    }
    EXPECT_EQ(slot->lastEndNs.load(), 0u);
    EXPECT_EQ(slot->current.load(), nullptr);
    // The recency rule needs lastEndNs, so an abandoned scope never
    // claims future samples.
    profiler.sample(10);
    EXPECT_NE(profiler.foldedStacks().find("prof.abandoned;idle 1"),
              std::string::npos);
}

TEST_F(ProfilerTest, FoldedStacksAreSortedAndStable)
{
    Profiler &profiler = Profiler::instance();
    profiler.enable(50);
    SiteActivitySlot *b = profiler.slotFor("prof.b");
    SiteActivitySlot *a = profiler.slotFor("prof.a");
    const ActivityLabel *label = profiler.intern("oc", "call");

    {
        ActivityScope scope(b, label);
        profiler.sample(100);
        scope.finish(100);
    }
    {
        ActivityScope scope(a, label);
        profiler.sample(200);
        scope.finish(200);
    }

    const std::string first = profiler.foldedStacks();
    const std::string second = profiler.foldedStacks();
    EXPECT_EQ(first, second);
    // std::map ordering: prof.a's line precedes prof.b's.
    EXPECT_LT(first.find("prof.a;"), first.find("prof.b;"));
}

TEST_F(ProfilerTest, InternReturnsStableIdentity)
{
    Profiler &profiler = Profiler::instance();
    const ActivityLabel *one = profiler.intern("same", "call");
    const ActivityLabel *two = profiler.intern("same", "call");
    EXPECT_EQ(one, two);
    EXPECT_EQ(profiler.slotFor("same-site"),
              profiler.slotFor("same-site"));
}

/**
 * Thread-safety stress: four threads publish scopes through their
 * interned slots while the main thread samples concurrently. Run
 * under TSAN via `ctest -L concurrency`; the assertion here is only
 * that every sample saw every site.
 */
TEST_F(ProfilerTest, ThreadedPublicationStress)
{
    Profiler &profiler = Profiler::instance();
    profiler.enable(1000);

    constexpr int kSites = 4;
    constexpr int kRounds = 200;
    std::vector<SiteActivitySlot *> slots;
    for (int s = 0; s < kSites; ++s)
        slots.push_back(profiler.slotFor("stress-" + std::to_string(s)));
    const ActivityLabel *label = profiler.intern("stress.oc", "data");

    std::vector<std::thread> workers;
    for (int s = 0; s < kSites; ++s) {
        workers.emplace_back([slot = slots[s], label]() {
            for (int round = 0; round < kRounds; ++round) {
                ActivityScope scope(slot, label);
                scope.finish(static_cast<std::uint64_t>(round) + 1);
            }
        });
    }
    for (int round = 0; round < kRounds; ++round)
        profiler.sample(static_cast<std::uint64_t>(round) + 1);
    for (std::thread &worker : workers)
        worker.join();
    profiler.sample(kRounds + 1000);

    EXPECT_EQ(profiler.samplesTaken(),
              static_cast<std::uint64_t>(kRounds) + 1);
    const std::string folded = profiler.foldedStacks();
    for (int s = 0; s < kSites; ++s)
        EXPECT_NE(folded.find("stress-" + std::to_string(s) + ";"),
                  std::string::npos)
            << folded;
}
