// Unit tests for src/common: RNG determinism and distribution sanity,
// tensor algebra, fixed-point helpers, table/CSV rendering, CLI parsing,
// statistics — plus the threaded surface of the one bounded MPMC queue,
// serve::AdmissionQueue (blocking push, shedding try_push, non-blocking
// try_pop, close wake-ups, seeded multi-producer/multi-consumer stress).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/fixed.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/tensor.hpp"
#include "serve/admission.hpp"
#include "serve/clock.hpp"

using namespace neuro::common;

TEST(Rng, DeterministicStreams) {
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next_u64() == b.next_u64()) ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformMomentsAndRange) {
    Rng rng(7);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
        sq += u * u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.01);
    EXPECT_NEAR(sq / n - 0.25, 1.0 / 12.0, 0.01);
}

TEST(Rng, NormalMoments) {
    Rng rng(9);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
    Rng rng(3);
    bool lo = false, hi = false;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniform_int(-2, 2);
        ASSERT_GE(v, -2);
        ASSERT_LE(v, 2);
        lo |= v == -2;
        hi |= v == 2;
    }
    EXPECT_TRUE(lo);
    EXPECT_TRUE(hi);
}

TEST(Rng, ShufflePermutes) {
    Rng rng(5);
    std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
    auto w = v;
    rng.shuffle(w);
    std::sort(w.begin(), w.end());
    EXPECT_EQ(v, w);
}

TEST(Rng, SplitProducesIndependentStream) {
    Rng a(11);
    Rng child = a.split();
    // The child stream must not replay the parent's.
    Rng b(11);
    (void)b.next_u64();  // advance identically to the split call
    EXPECT_NE(child.next_u64(), b.next_u64());
}

TEST(Tensor, ShapeAndIndexing) {
    Tensor t({2, 3, 4});
    EXPECT_EQ(t.size(), 24u);
    EXPECT_EQ(t.rank(), 3u);
    t.at3(1, 2, 3) = 5.0f;
    EXPECT_FLOAT_EQ(t[23], 5.0f);
    EXPECT_EQ(t.describe(), "Tensor[2x3x4]");
}

TEST(Tensor, ReshapePreservesCount) {
    Tensor t({4, 6});
    t.reshape({24});
    EXPECT_EQ(t.rank(), 1u);
    EXPECT_THROW(t.reshape({5}), std::invalid_argument);
}

TEST(Tensor, Arithmetic) {
    Tensor a({3});
    Tensor b({3});
    a.fill(2.0f);
    b.fill(1.5f);
    a += b;
    EXPECT_FLOAT_EQ(a[0], 3.5f);
    a -= b;
    EXPECT_FLOAT_EQ(a[1], 2.0f);
    a *= 2.0f;
    EXPECT_FLOAT_EQ(a[2], 4.0f);
    EXPECT_FLOAT_EQ(a.sum(), 12.0f);
    EXPECT_FLOAT_EQ(a.mean(), 4.0f);
}

TEST(Tensor, ArgmaxFirstOnTies) {
    Tensor t({4});
    t[0] = 1.0f;
    t[1] = 3.0f;
    t[2] = 3.0f;
    t[3] = 0.0f;
    EXPECT_EQ(t.argmax(), 1u);
}

TEST(Fixed, SaturateSigned) {
    EXPECT_EQ(saturate_signed(127, 8), 127);
    EXPECT_EQ(saturate_signed(128, 8), 127);
    EXPECT_EQ(saturate_signed(-128, 8), -128);
    EXPECT_EQ(saturate_signed(-129, 8), -128);
    EXPECT_EQ(saturate_signed(100000, 8), 127);
}

TEST(Fixed, SaturateUnsigned) {
    EXPECT_EQ(saturate_unsigned(127, 7), 127);
    EXPECT_EQ(saturate_unsigned(128, 7), 127);
    EXPECT_EQ(saturate_unsigned(-5, 7), 0);
}

TEST(Fixed, Decay12Extremes) {
    // delta = 0: perfect integrator. delta = 4096: clears in one step.
    EXPECT_EQ(decay12(1000, 0), 1000);
    EXPECT_EQ(decay12(1000, 4096), 0);
    // Halfway decay.
    EXPECT_EQ(decay12(1000, 2048), 500);
}

TEST(Fixed, QuantizeRoundTrip) {
    const float v = 0.37f;
    const auto q = quantize_signed(v, 1.0f, 8);
    EXPECT_NEAR(dequantize_signed(q, 1.0f, 8), v, 1.0f / 127.0f);
    EXPECT_EQ(quantize_signed(2.0f, 1.0f, 8), 127);   // saturates
    EXPECT_EQ(quantize_signed(-2.0f, 1.0f, 8), -128);
}

TEST(Table, AlignsAndFormats) {
    Table t({"name", "value"});
    t.add_row({"alpha", Table::fmt(1.5)});
    t.add_row({"b", Table::pct(0.945)});
    const std::string s = t.str();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("1.50"), std::string::npos);
    EXPECT_NE(s.find("94.5%"), std::string::npos);
    EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Csv, WritesEscapedFile) {
    const std::string dir = testing::TempDir() + "/neuro_csv_test";
    CsvWriter w(dir, "t", {"a", "b"});
    w.add_row({"x,y", "plain"});
    const std::string path = w.write();
    std::ifstream f(path);
    std::string line;
    std::getline(f, line);
    EXPECT_EQ(line, "a,b");
    std::getline(f, line);
    EXPECT_EQ(line, "\"x,y\",plain");
    std::filesystem::remove_all(dir);
}

TEST(Cli, ParsesKeysFlagsAndTypes) {
    const char* argv[] = {"prog", "--alpha=3", "--flag", "--rate=0.5",
                          "--name=test"};
    Cli cli(5, argv);
    EXPECT_FALSE(cli.error());
    EXPECT_EQ(cli.get_int("alpha", 0), 3);
    EXPECT_TRUE(cli.get_bool("flag", false));
    EXPECT_DOUBLE_EQ(cli.get_double("rate", 0.0), 0.5);
    EXPECT_EQ(cli.get("name", ""), "test");
    EXPECT_EQ(cli.get_int("missing", 7), 7);
}

TEST(Cli, RejectsPositional) {
    const char* argv[] = {"prog", "positional"};
    Cli cli(2, argv);
    EXPECT_TRUE(cli.error());
}

TEST(Cli, MalformedNumbersNameTheFlag) {
    const char* argv[] = {"prog", "--workers=3x", "--n=abc", "--rate=0.5s",
                          "--big=99999999999999999999", "--neg=-4",
                          "--empty=", "--bare"};
    Cli cli(8, argv);
    for (const char* key : {"workers", "n", "big", "empty", "bare"}) {
        SCOPED_TRACE(key);
        try {
            cli.get_int(key, 0);
            ADD_FAILURE() << "accepted a malformed integer";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(std::string("--") + key),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_THROW(cli.get_double("rate", 0.0), std::invalid_argument);
    EXPECT_EQ(cli.get_int("neg", 0), -4);
    EXPECT_EQ(cli.get_int("missing", 7), 7);
}

TEST(Stats, ConfusionAccuracyAndRecall) {
    Confusion c(3);
    c.add(0, 0);
    c.add(0, 1);
    c.add(1, 1);
    c.add(2, 2);
    EXPECT_DOUBLE_EQ(c.accuracy(), 0.75);
    EXPECT_DOUBLE_EQ(c.recall(0), 0.5);
    EXPECT_DOUBLE_EQ(c.recall(1), 1.0);
    EXPECT_DOUBLE_EQ(c.accuracy_over({0}), 0.5);
    EXPECT_DOUBLE_EQ(c.accuracy_over({1, 2}), 1.0);
    EXPECT_THROW(c.add(3, 0), std::out_of_range);
}

TEST(Stats, MeanStddevArgmax) {
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_NEAR(stddev({1.0, 2.0, 3.0}), 1.0, 1e-12);
    EXPECT_EQ(argmax(std::vector<double>{1.0, 5.0, 2.0}), 1u);
    EXPECT_EQ(argmax(std::vector<int>{3, 3, 1}), 0u);
}

// ---- latency histogram ------------------------------------------------------

TEST(LatencyHistogram, PercentilesBoundedBySubBucketResolution) {
    LatencyHistogram h;
    for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_DOUBLE_EQ(h.max_us(), 1000.0);
    EXPECT_NEAR(h.mean_us(), 500.5, 1e-9);
    const double p50 = h.percentile(0.50);
    const double p95 = h.percentile(0.95);
    const double p99 = h.percentile(0.99);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_LE(p99, h.max_us());
    // Log-bucketed estimates err high by at most one sub-bucket (~6%).
    EXPECT_GE(p50, 500.0);
    EXPECT_LE(p50, 500.0 * 1.07);
    EXPECT_GE(p99, 990.0);
    // p100 clamps to the observed maximum.
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 1000.0);
}

TEST(LatencyHistogram, EmptyAndSubMicrosecond) {
    LatencyHistogram h;
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
    h.record(0.25);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_LE(h.percentile(0.50), 1.0);
    EXPECT_LE(h.percentile(0.99), 1.0);
}

// ---- admission queue: blocking, shedding, non-blocking pop, close -----------

namespace {

using neuro::serve::Admitted;
using neuro::serve::AdmissionQueue;
using neuro::serve::Dropped;

// Encode (producer, sequence) so consumers can check per-producer FIFO
// without any out-of-band bookkeeping.
constexpr int kSeqBase = 1'000'000;
int encode(int producer, int seq) { return producer * kSeqBase + seq; }

}  // namespace

TEST(AdmissionQueue, TryPushRefusesWhenFullAndKeepsValue) {
    using Queue = AdmissionQueue<std::unique_ptr<int>>;
    Queue q(1);
    auto a = std::make_unique<int>(1);
    EXPECT_EQ(q.try_push(a), Queue::Push::Ok);
    EXPECT_EQ(a, nullptr);  // moved out on success
    auto b = std::make_unique<int>(2);
    EXPECT_EQ(q.try_push(b), Queue::Push::Full);
    ASSERT_NE(b, nullptr);  // refused value stays with the caller
    EXPECT_EQ(*b, 2);
    q.close();
    EXPECT_EQ(q.try_push(b), Queue::Push::Closed);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(*b, 2);
}

TEST(AdmissionQueue, TryPopReturnsAtOnceOnEmpty) {
    AdmissionQueue<int> q(2);
    Admitted<int> out;
    std::vector<Dropped<int>> drops;
    EXPECT_FALSE(q.try_pop(out, drops));
    EXPECT_TRUE(drops.empty());  // an empty queue, not a drop round
    int v = 3;
    ASSERT_TRUE(q.push(v));
    ASSERT_TRUE(q.try_pop(out, drops));
    EXPECT_EQ(out.value, 3);
    q.close();
    EXPECT_FALSE(q.try_pop(out, drops));  // closed and drained
    EXPECT_TRUE(drops.empty());
}

TEST(AdmissionQueue, BlockingPushUnblocksOnPop) {
    AdmissionQueue<int> q(1);
    int v0 = 0;
    ASSERT_TRUE(q.push(v0));
    std::atomic<bool> second_pushed{false};
    std::thread producer([&] {
        int v1 = 1;
        EXPECT_TRUE(q.push(v1));  // blocks until the consumer pops
        second_pushed.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_FALSE(second_pushed.load());
    Admitted<int> out;
    std::vector<Dropped<int>> drops;
    ASSERT_TRUE(q.pop(out, drops));
    EXPECT_EQ(out.value, 0);
    producer.join();
    EXPECT_TRUE(second_pushed.load());
    ASSERT_TRUE(q.pop(out, drops));
    EXPECT_EQ(out.value, 1);
    EXPECT_TRUE(drops.empty());
}

TEST(AdmissionQueue, CloseWakesBlockedProducer) {
    AdmissionQueue<int> q(1);
    int v0 = 0;
    ASSERT_TRUE(q.push(v0));
    std::thread producer([&] {
        int v1 = 1;
        EXPECT_FALSE(q.push(v1));  // full, then woken by close: refused
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.close();
    producer.join();
    Admitted<int> out;
    std::vector<Dropped<int>> drops;
    EXPECT_TRUE(q.pop(out, drops));  // the accepted item still drains
    EXPECT_EQ(out.value, 0);
    EXPECT_FALSE(q.pop(out, drops));
    EXPECT_TRUE(drops.empty());
}

TEST(AdmissionQueue, CloseWakesBlockedConsumer) {
    AdmissionQueue<int> q(1);
    std::thread consumer([&] {
        Admitted<int> out;
        std::vector<Dropped<int>> drops;
        // Empty, then woken by close: closed and drained.
        EXPECT_FALSE(q.pop(out, drops));
        EXPECT_TRUE(drops.empty());
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.close();
    consumer.join();
}

// Randomized (seeded ⇒ reproducible) MPMC interleavings: no accepted item
// is lost or duplicated, and each consumer sees every producer's items in
// the order that producer pushed them. Pops are serialized by the queue
// and FIFO holds within a class, so one consumer's pops of one producer's
// items are increasing — the queue may interleave producers arbitrarily,
// but never reorders a single producer's stream.
TEST(AdmissionQueueStress, SeededMpmcLoadKeepsEachProducersOrder) {
    for (const std::uint64_t seed : {7ull, 21ull, 1968ull}) {
        Rng rng(seed);
        const int producers = static_cast<int>(rng.uniform_int(2, 4));
        const int consumers = static_cast<int>(rng.uniform_int(2, 4));
        const int per_producer = static_cast<int>(rng.uniform_int(200, 400));
        AdmissionQueue<int> q(static_cast<std::size_t>(rng.uniform_int(1, 8)));

        std::vector<std::thread> pushers;
        for (int p = 0; p < producers; ++p) {
            pushers.emplace_back([&, p] {
                for (int s = 0; s < per_producer; ++s) {
                    int v = encode(p, s);
                    EXPECT_TRUE(q.push(v));  // blocking push: nothing is shed
                }
            });
        }
        std::mutex consumed_m;
        std::vector<std::vector<int>> consumed;
        std::vector<std::thread> poppers;
        for (int c = 0; c < consumers; ++c) {
            poppers.emplace_back([&] {
                Admitted<int> out;
                std::vector<Dropped<int>> drops;
                std::vector<int> local;
                while (q.pop(out, drops)) local.push_back(out.value);
                EXPECT_TRUE(drops.empty());  // no CoDel, no deadlines
                std::lock_guard<std::mutex> lock(consumed_m);
                consumed.push_back(std::move(local));
            });
        }
        for (auto& t : pushers) t.join();
        q.close();  // consumers drain what is left, then see the end
        for (auto& t : poppers) t.join();

        std::vector<int> all;
        for (const auto& local : consumed) {
            std::map<int, int> last;  // producer -> last sequence seen
            for (const int v : local) {
                const int p = v / kSeqBase;
                const auto it = last.find(p);
                ASSERT_TRUE(it == last.end() || it->second < v % kSeqBase)
                    << "seed " << seed << ": producer " << p << " reordered";
                last[p] = v % kSeqBase;
            }
            all.insert(all.end(), local.begin(), local.end());
        }
        // Conservation: each (producer, seq) appears exactly once.
        ASSERT_EQ(all.size(),
                  static_cast<std::size_t>(producers * per_producer))
            << "seed " << seed;
        std::sort(all.begin(), all.end());
        for (int p = 0, i = 0; p < producers; ++p)
            for (int s = 0; s < per_producer; ++s, ++i)
                ASSERT_EQ(all[static_cast<std::size_t>(i)], encode(p, s))
                    << "seed " << seed;
    }
}

// The same conservation law for the admission queue, with drops in the
// balance: accepted == admitted + dropped, every drop carries the right
// cause, and within one class a single consumer observes producer FIFO.
TEST(AdmissionQueueStress, ConcurrentProducersConserveEntriesAcrossClasses) {
    using neuro::serve::DropCause;
    using neuro::serve::Priority;

    auto clk = std::make_shared<neuro::serve::ManualClock>();
    clk->set_us(1'000);
    AdmissionQueue<int> q(8, neuro::serve::AdmissionConfig{}, clk);

    constexpr int kProducers = 3;  // one per priority class
    constexpr int kPerProducer = 400;
    std::vector<std::thread> producers;
    std::atomic<std::uint64_t> expired_pushed{0};
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            Rng rng(100 + static_cast<std::uint64_t>(p));
            const auto cls = static_cast<Priority>(p);
            for (int s = 0; s < kPerProducer; ++s) {
                int v = encode(p, s);
                // ~25% of entries carry an already-expired deadline (the
                // clock is frozen at 1000, the deadline is 500): they must
                // surface as DeadlineExceeded drops, never dispatch.
                const bool expired = rng.bernoulli(0.25);
                if (expired) expired_pushed.fetch_add(1);
                ASSERT_TRUE(q.push(v, cls, expired ? 500u : 0u));
            }
        });
    }

    std::vector<int> admitted;
    std::vector<Dropped<int>> dropped;
    std::thread consumer([&] {
        Admitted<int> out;
        std::vector<Dropped<int>> drops;
        for (;;) {
            drops.clear();
            const bool got = q.pop(out, drops);
            dropped.insert(dropped.end(),
                           std::make_move_iterator(drops.begin()),
                           std::make_move_iterator(drops.end()));
            if (got)
                admitted.push_back(out.value);
            else if (drops.empty())
                break;  // terminal: closed and drained
        }
    });
    for (auto& t : producers) t.join();
    q.close();
    consumer.join();

    EXPECT_EQ(admitted.size() + dropped.size(),
              static_cast<std::size_t>(kProducers * kPerProducer));
    EXPECT_EQ(dropped.size(), expired_pushed.load());
    for (const auto& d : dropped)
        EXPECT_EQ(d.cause, DropCause::DeadlineExceeded);

    // Single consumer ⇒ per-class order is observable: the admitted and
    // dropped streams each replay their producer's sequence monotonically
    // (one producer per class; the queue never reorders within a class).
    std::map<int, int> next_admitted, next_dropped;
    for (const int v : admitted) {
        const int p = v / kSeqBase;
        ASSERT_GE(v % kSeqBase, next_admitted[p]);
        next_admitted[p] = v % kSeqBase;
    }
    for (const auto& d : dropped) {
        const int p = d.value / kSeqBase;
        ASSERT_GE(d.value % kSeqBase, next_dropped[p]);
        next_dropped[p] = d.value % kSeqBase;
    }

    const auto counters = q.counters();
    std::uint64_t acc = 0, disp = 0, dl = 0;
    for (std::size_t c = 0; c < neuro::serve::kPriorityClasses; ++c) {
        acc += counters.accepted[c];
        disp += counters.dispatched[c];
        dl += counters.deadline_dropped[c];
    }
    EXPECT_EQ(acc, static_cast<std::uint64_t>(kProducers * kPerProducer));
    EXPECT_EQ(disp, admitted.size());
    EXPECT_EQ(dl, dropped.size());
}
