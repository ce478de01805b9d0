/**
 * @file
 * Tests for the executor interface and its deterministic SimExecutor
 * backend, plus the thread-safe primitives the runtime keeps: Payload
 * pool conservation under concurrent traffic and cross-thread span
 * stitching. Everything labeled `concurrency` in ctest also runs under
 * ThreadSanitizer via `scripts/check.sh --tsan`.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <mutex>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/payload.hh"
#include "exec/executor.hh"
#include "exec/sim_executor.hh"
#include "obs/span.hh"
#include "obs/trace.hh"

namespace hydra::exec {
namespace {

// -------------------------------------------------------- SimExecutor

TEST(SimExecutorTest, MirrorsSimulatorSemantics)
{
    SimExecutor engine;
    EXPECT_STREQ(engine.backendName(), "sim");

    std::vector<int> order;
    engine.schedule(sim::microseconds(2), [&]() { order.push_back(2); });
    engine.schedule(sim::microseconds(1), [&]() { order.push_back(1); });
    const TaskId doomed =
        engine.schedule(sim::microseconds(3), [&]() { order.push_back(3); });
    engine.cancel(doomed);

    engine.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(engine.now(), sim::microseconds(2));
}

TEST(SimExecutorTest, PostRunsInFifoOrderWithoutAdvancingTime)
{
    SimExecutor engine;
    const SiteId site = engine.addSite("dev0");
    EXPECT_EQ(engine.siteCount(), 1u);

    engine.runUntil(sim::microseconds(5));
    std::vector<int> order;
    engine.post(site, [&]() { order.push_back(1); });
    engine.post(kMainSite, [&]() { order.push_back(2); });
    engine.post(site, [&]() { order.push_back(3); });
    EXPECT_TRUE(order.empty()); // nothing runs until the loop turns

    engine.drain();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(engine.now(), sim::microseconds(5)); // time did not move
}

TEST(SimExecutorTest, DrainLeavesFutureTimersPending)
{
    SimExecutor engine;
    bool fired = false;
    engine.schedule(sim::milliseconds(1), [&]() { fired = true; });
    engine.drain();
    EXPECT_FALSE(fired);
    EXPECT_EQ(engine.pendingEvents(), 1u);
}

// ----------------------------------------------- Payload conservation

TEST(PayloadThreadSafetyTest, PoolCountersConservedUnderContention)
{
    payloadPoolTrim();
    const PayloadPoolStats before = payloadPoolStats();

    constexpr int kThreads = 4;
    constexpr int kRounds = 5000;
    std::atomic<std::uint64_t> bytesSeen{0};

    // Each thread builds payloads, shares them (copy + slice), hands a
    // copy to its neighbor through a mailbox, and drops its own refs.
    // The neighbor drops the handed-off copy, so release/recycle
    // happens on a different thread than allocation.
    struct Mailbox
    {
        std::mutex mutex;
        std::deque<Payload> items;
    };
    std::vector<Mailbox> mailboxes(kThreads);
    auto drainMailbox = [&](int t) {
        std::deque<Payload> taken;
        {
            std::lock_guard<std::mutex> lock(mailboxes[t].mutex);
            taken.swap(mailboxes[t].items);
        }
        for (const Payload &kept : taken)
            (void)kept.size();
    };

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t]() {
            Mailbox &neighbor = mailboxes[(t + 1) % kThreads];
            for (int i = 0; i < kRounds; ++i) {
                PayloadBuilder builder;
                builder.buffer().assign(64 + (i % 7), std::uint8_t(i));
                Payload message = builder.seal();
                Payload copy = message;          // refcount traffic
                Payload body = message.slice(8, 32);
                bytesSeen.fetch_add(body.size(),
                                    std::memory_order_relaxed);
                {
                    std::lock_guard<std::mutex> lock(neighbor.mutex);
                    neighbor.items.push_back(std::move(copy));
                }
                if (i % 64 == 0)
                    drainMailbox(t);
            }
            drainMailbox(t);
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t)
        drainMailbox(t);

    const PayloadPoolStats after = payloadPoolStats();
    const std::uint64_t acquired =
        (after.allocations - before.allocations) +
        (after.poolHits - before.poolHits);
    const std::uint64_t expected =
        static_cast<std::uint64_t>(kThreads) * kRounds;
    // Conservation: every node acquired was exactly one builder seal,
    // and every one was either recycled into the freelist or freed
    // (over-capacity / pool-full) — never double-freed, never leaked
    // into the freelist twice.
    EXPECT_EQ(acquired, expected);
    EXPECT_GE(after.recycles, before.recycles);
    EXPECT_LE(after.recycles - before.recycles, acquired);
    EXPECT_LE(after.freeNodes, 256u); // kMaxFreeNodes bound held
    EXPECT_EQ(bytesSeen.load(), expected * 32u);
}

// ------------------------------------------------------ span stitching

#if HYDRA_OBS_TRACING
TEST(ThreadedSpanTest, SpansFromDifferentThreadsStitchIntoOneTrace)
{
    auto &tracer = obs::Tracer::instance();
    tracer.clear();
    tracer.enable();
    obs::resetSpanIds();

    obs::SpanContext rootCtx, childCtx;
    {
        obs::Span root;
        root.open("test", "main", "root", "test", 0);
        rootCtx = root.context();

        std::thread worker([&, parent = root.context()]() {
            // The send stamps the context; the receiving thread
            // restores it — spans there nest under the root.
            obs::ContextScope scope(parent);
            obs::Span child;
            child.open("test", "worker", "child", "test", 0);
            childCtx = child.context();
            child.end(1);
        });
        worker.join();
        root.end(1);
    }

    EXPECT_EQ(childCtx.traceId, rootCtx.traceId);
    EXPECT_EQ(childCtx.parentId, rootCtx.spanId);
    EXPECT_NE(childCtx.spanId, rootCtx.spanId);
    tracer.disable();
}

TEST(ThreadedSpanTest, ConcurrentSpanIdsNeverCollide)
{
    auto &tracer = obs::Tracer::instance();
    tracer.clear();
    tracer.enable();
    obs::resetSpanIds();

    constexpr int kThreads = 4;
    constexpr int kSpans = 2000;
    std::vector<std::vector<std::uint64_t>> ids(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t]() {
            ids[t].reserve(kSpans);
            for (int i = 0; i < kSpans; ++i) {
                obs::Span span;
                span.open("test", "t" + std::to_string(t), "s", "test",
                          0);
                ids[t].push_back(span.context().spanId);
                span.end(1);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    std::set<std::uint64_t> unique;
    for (const auto &perThread : ids)
        unique.insert(perThread.begin(), perThread.end());
    EXPECT_EQ(unique.size(),
              static_cast<std::size_t>(kThreads) * kSpans);
    tracer.disable();
}
#endif // HYDRA_OBS_TRACING

// -------------------------------------------------- Batch executors

TEST(SimExecutorTest, PostBatchRunsInFifoOrder)
{
    SimExecutor engine;
    const SiteId site = engine.addSite("dev0");

    std::vector<int> order;
    std::vector<Executor::Callback> fns;
    for (int i = 0; i < 8; ++i)
        fns.emplace_back([&order, i]() { order.push_back(i); });
    engine.postBatch(site, fns);
    engine.post(site, [&order]() { order.push_back(8); });
    EXPECT_TRUE(order.empty());

    engine.drain();
    ASSERT_EQ(order.size(), 9u);
    for (int i = 0; i < 9; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(SimExecutorTest, BatchedReplayIsByteIdenticalToUnbatched)
{
    // The determinism contract: postBatch on the sim engine must
    // produce exactly the record an equivalent loop of post() calls
    // produces — same execution order, same virtual timestamps, same
    // event accounting. Serialize the observable run and compare the
    // strings byte for byte.
    auto runTrial = [](bool batched) {
        SimExecutor engine;
        const SiteId site = engine.addSite("dev0");
        std::ostringstream record;

        auto task = [&record, &engine](int i) {
            return Executor::Callback([&record, &engine, i]() {
                record << i << '@' << engine.now() << ';';
            });
        };
        // A timer interleaves with the posted work so the record
        // covers both queues, not just the post path.
        engine.schedule(sim::microseconds(1), [&record, &engine]() {
            record << "t@" << engine.now() << ';';
        });
        if (batched) {
            std::vector<Executor::Callback> fns;
            for (int i = 0; i < 16; ++i)
                fns.push_back(task(i));
            engine.postBatch(site, fns);
        } else {
            for (int i = 0; i < 16; ++i)
                engine.post(site, task(i));
        }
        engine.runToCompletion();
        record << "now=" << engine.now()
               << ";pending=" << engine.pendingEvents();
        return record.str();
    };

    const std::string unbatched = runTrial(false);
    const std::string batchedA = runTrial(true);
    const std::string batchedB = runTrial(true);
    EXPECT_EQ(batchedA, unbatched);
    EXPECT_EQ(batchedB, batchedA); // replay is stable too
}

} // namespace
} // namespace hydra::exec
