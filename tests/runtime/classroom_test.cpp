#include "pdcu/runtime/classroom.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "pdcu/support/rng.hpp"

namespace rt = pdcu::rt;

TEST(Classroom, RanksAndSizeAreCorrect) {
  std::atomic<int> sum{0};
  auto result = rt::Classroom::run(5, [&](rt::Comm& comm) {
    EXPECT_EQ(comm.size(), 5);
    sum.fetch_add(comm.rank());
  });
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(sum.load(), 0 + 1 + 2 + 3 + 4);
}

TEST(Classroom, PointToPointDelivers) {
  std::atomic<std::int64_t> got{-1};
  auto result = rt::Classroom::run(2, [&](rt::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, {7, 8, 9});
    } else {
      auto message = comm.recv(0);
      EXPECT_EQ(message.src, 0);
      EXPECT_EQ(message.payload.size(), 3u);
      got.store(message.payload[2]);
    }
  });
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(got.load(), 9);
}

TEST(Classroom, SelectiveReceiveByTag) {
  auto result = rt::Classroom::run(2, [&](rt::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, {1}, /*tag=*/10);
      comm.send(1, {2}, /*tag=*/20);
    } else {
      // Receive the tag-20 message first even though it arrived second.
      EXPECT_EQ(comm.recv(0, 20).payload[0], 2);
      EXPECT_EQ(comm.recv(0, 10).payload[0], 1);
    }
  });
  EXPECT_TRUE(result.ok());
}

TEST(Classroom, WildcardReceiveMatchesAnySource) {
  auto result = rt::Classroom::run(3, [&](rt::Comm& comm) {
    if (comm.rank() != 0) {
      comm.send(0, {static_cast<std::int64_t>(comm.rank())});
    } else {
      std::int64_t sum = 0;
      sum += comm.recv(rt::kAny).payload[0];
      sum += comm.recv(rt::kAny).payload[0];
      EXPECT_EQ(sum, 3);
    }
  });
  EXPECT_TRUE(result.ok());
}

TEST(Classroom, BarrierAlignsVirtualClocks) {
  auto result = rt::Classroom::run(4, [&](rt::Comm& comm) {
    comm.work(comm.rank() * 10);  // ranks finish at different times
    comm.barrier();
    EXPECT_EQ(comm.clock().now(), 30);  // everyone jumps to the maximum
  });
  EXPECT_TRUE(result.ok());
}

TEST(Classroom, BcastDeliversToEveryRankFromAnyRoot) {
  for (int root = 0; root < 4; ++root) {
    auto result = rt::Classroom::run(5, [&](rt::Comm& comm) {
      std::vector<std::int64_t> payload;
      if (comm.rank() == root) payload = {42, 43};
      payload = comm.bcast(root, std::move(payload));
      ASSERT_EQ(payload.size(), 2u);
      EXPECT_EQ(payload[0], 42);
    });
    EXPECT_TRUE(result.ok()) << "root " << root;
  }
}

TEST(Classroom, GatherCollectsInRankOrder) {
  auto result = rt::Classroom::run(4, [&](rt::Comm& comm) {
    auto all = comm.gather(0, comm.rank() * 100);
    if (comm.rank() == 0) {
      ASSERT_EQ(all.size(), 4u);
      for (int i = 0; i < 4; ++i) EXPECT_EQ(all[i], i * 100);
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
  EXPECT_TRUE(result.ok());
}

TEST(Classroom, ReduceSumsAtRoot) {
  auto result = rt::Classroom::run(6, [&](rt::Comm& comm) {
    std::int64_t total = comm.reduce(
        0, comm.rank() + 1,
        [](std::int64_t a, std::int64_t b) { return a + b; });
    if (comm.rank() == 0) {
      EXPECT_EQ(total, 21);  // 1+2+...+6
    }
  });
  EXPECT_TRUE(result.ok());
}

TEST(Classroom, AllreduceGivesEveryoneTheResult) {
  auto result = rt::Classroom::run(5, [&](rt::Comm& comm) {
    std::int64_t max = comm.allreduce(
        comm.rank() * 2,
        [](std::int64_t a, std::int64_t b) { return std::max(a, b); });
    EXPECT_EQ(max, 8);
  });
  EXPECT_TRUE(result.ok());
}

TEST(Classroom, ScatterSplitsBlocks) {
  std::vector<std::int64_t> data(12);
  std::iota(data.begin(), data.end(), 0);
  auto result = rt::Classroom::run(4, [&](rt::Comm& comm) {
    auto block = comm.scatter(0, data);
    ASSERT_EQ(block.size(), 3u);
    EXPECT_EQ(block[0], comm.rank() * 3);
  });
  EXPECT_TRUE(result.ok());
}

TEST(Classroom, ScatterHandlesUnevenRemainder) {
  std::vector<std::int64_t> data(10);  // 10 items over 4 ranks: 3,3,3,1
  std::iota(data.begin(), data.end(), 0);
  std::atomic<std::int64_t> total{0};
  auto result = rt::Classroom::run(4, [&](rt::Comm& comm) {
    auto block = comm.scatter(0, data);
    std::int64_t sum = 0;
    for (auto v : block) sum += v;
    total.fetch_add(sum);
  });
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(total.load(), 45);
}

TEST(Classroom, ExceptionsSurfaceInResult) {
  auto result = rt::Classroom::run(3, [&](rt::Comm& comm) {
    if (comm.rank() == 2) throw std::runtime_error("student fainted");
  });
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.error, "student fainted");
}

TEST(Classroom, MessageCostsAdvanceTheReceiverClock) {
  rt::CostModel model;
  model.msg_latency = 5;
  model.msg_per_item = 2;
  auto result = rt::Classroom::run(
      2,
      [&](rt::Comm& comm) {
        if (comm.rank() == 0) {
          comm.work(3);
          comm.send(1, {1, 2});  // stamped at t=3
        } else {
          comm.recv(0);
          // arrival = 3 + 5 + 2*2 = 12
          EXPECT_EQ(comm.clock().now(), 12);
        }
      },
      model);
  EXPECT_TRUE(result.ok());
}

TEST(Classroom, RunCostAggregates) {
  auto result = rt::Classroom::run(3, [&](rt::Comm& comm) {
    comm.work(10);
    if (comm.rank() > 0) comm.send(0, {1});
    if (comm.rank() == 0) {
      comm.recv(rt::kAny);
      comm.recv(rt::kAny);
    }
  });
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.cost.total_work, 30);
  EXPECT_EQ(result.cost.total_messages, 2);
  EXPECT_EQ(result.final_clocks.size(), 3u);
  EXPECT_GE(result.cost.makespan, 10);
}

TEST(Classroom, TraceRecordsScriptedEvents) {
  rt::TraceLog trace;
  auto result = rt::Classroom::run(
      2,
      [&](rt::Comm& comm) {
        comm.work(comm.rank());
        comm.log("acts");
      },
      {}, &trace);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(trace.size(), 2u);
  std::string script = trace.render_script();
  EXPECT_NE(script.find("student 0: acts"), std::string::npos);
  EXPECT_NE(script.find("student 1: acts"), std::string::npos);
}

class CollectiveRanks : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveRanks, AllreduceMatchesSerialFold) {
  const int n = GetParam();
  std::vector<std::int64_t> inputs(static_cast<std::size_t>(n));
  pdcu::Rng rng(static_cast<std::uint64_t>(n));
  std::int64_t expected = 0;
  for (auto& v : inputs) {
    v = rng.between(-100, 100);
    expected += v;
  }
  std::atomic<int> mismatches{0};
  auto result = rt::Classroom::run(n, [&](rt::Comm& comm) {
    std::int64_t total = comm.allreduce(
        inputs[static_cast<std::size_t>(comm.rank())],
        [](std::int64_t a, std::int64_t b) { return a + b; });
    if (total != expected) mismatches.fetch_add(1);
  });
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(mismatches.load(), 0) << "n=" << n;
}

TEST_P(CollectiveRanks, ScatterThenGatherBlocksRoundTrips) {
  const int n = GetParam();
  std::vector<std::int64_t> data(static_cast<std::size_t>(3 * n + 1));
  std::iota(data.begin(), data.end(), 100);
  std::atomic<std::int64_t> sum{0};
  auto result = rt::Classroom::run(n, [&](rt::Comm& comm) {
    auto block = comm.scatter(0, data);
    std::int64_t local = 0;
    for (auto v : block) local += v;
    sum.fetch_add(local);
  });
  EXPECT_TRUE(result.ok());
  std::int64_t expected = 0;
  for (auto v : data) expected += v;
  EXPECT_EQ(sum.load(), expected) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Ranks, CollectiveRanks,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16));

TEST(Classroom, SingleRankDegenerateCase) {
  auto result = rt::Classroom::run(1, [&](rt::Comm& comm) {
    EXPECT_EQ(comm.bcast(0, {5})[0], 5);
    EXPECT_EQ(comm.reduce(0, 7,
                          [](std::int64_t a, std::int64_t b) {
                            return a + b;
                          }),
              7);
    auto all = comm.gather(0, 3);
    ASSERT_EQ(all.size(), 1u);
    comm.barrier();
  });
  EXPECT_TRUE(result.ok());
}

// --- Regression tests for the teardown and tag-namespace fixes. ---

// A rank that throws while a peer is blocked in recv used to deadlock the
// whole run (join waited forever on the blocked rank). The shared state is
// now poisoned on first failure, so the blocked rank aborts and run()
// reports the original error.
TEST(ClassroomFailure, RankThrowWhilePeerBlockedInRecvReturnsError) {
  auto result = rt::Classroom::run(2, [&](rt::Comm& comm) {
    if (comm.rank() == 0) {
      throw std::runtime_error("rank 0 exploded before sending");
    }
    comm.recv(0);  // would block forever without teardown poisoning
    ADD_FAILURE() << "recv returned after the peer died";
  });
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("rank 0 exploded"), std::string::npos)
      << result.error;
}

TEST(ClassroomFailure, RankThrowWhilePeersBlockedInBarrierReturnsError) {
  auto result = rt::Classroom::run(4, [&](rt::Comm& comm) {
    if (comm.rank() == 3) {
      throw std::runtime_error("rank 3 never reaches the barrier");
    }
    comm.barrier();  // can never complete with rank 3 dead
    ADD_FAILURE() << "barrier completed with a dead rank";
  });
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("rank 3"), std::string::npos) << result.error;
}

TEST(ClassroomFailure, DeliveredMessageStillWinsOverShutdown) {
  // Teardown must not lose a message that was already delivered: the
  // surviving rank's recv matches the queued message even while the
  // classroom is being poisoned.
  std::atomic<std::int64_t> got{-1};
  auto result = rt::Classroom::run(3, [&](rt::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, {41});
      throw std::runtime_error("rank 0 failed after sending");
    }
    if (comm.rank() == 1) {
      got.store(comm.recv(0).payload[0]);
    }
    // Rank 2 blocks in recv and must be aborted, not deadlocked.
    if (comm.rank() == 2) comm.recv(0);
  });
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(got.load(), 41);
}

// User tags share no namespace with the collectives any more: negative
// tags are rejected at the public API instead of silently colliding (and
// tag -1 == kAny could never be matched at all).
TEST(ClassroomTags, NegativeUserTagsAreRejected) {
  auto result = rt::Classroom::run(2, [&](rt::Comm& comm) {
    if (comm.rank() == 0) {
      EXPECT_THROW(comm.send(1, {1}, -42), std::invalid_argument);
      EXPECT_THROW(comm.send(1, {1}, -1), std::invalid_argument);
      comm.send(1, {2}, 0);  // a valid tag still works
    } else {
      EXPECT_THROW(comm.recv(0, -42), std::invalid_argument);
      rt::ClassMessage out;
      EXPECT_THROW(comm.try_recv(0, -7, out), std::invalid_argument);
      EXPECT_EQ(comm.recv(0, 0).payload[0], 2);
    }
  });
  EXPECT_TRUE(result.ok());
}

TEST(ClassroomTags, UserTrafficIsNotSwallowedByAConcurrentBcast) {
  // Before the fix a user send tagged -42 was indistinguishable from
  // bcast's internal traffic. Now user sends use the non-negative range
  // and wildcard receives only match user traffic, so point-to-point
  // messages and a concurrent bcast cannot swallow each other.
  std::atomic<std::int64_t> direct{-1};
  std::atomic<std::int64_t> broadcast{-1};
  auto result = rt::Classroom::run(4, [&](rt::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(3, {1234}, 7);
    }
    auto value = comm.bcast(0, {555});
    if (comm.rank() == 3) {
      broadcast.store(value[0]);
      // Wildcard recv: must match the user message, never a stray
      // internal collective message.
      auto message = comm.recv(rt::kAny, rt::kAny);
      EXPECT_EQ(message.tag, 7);
      direct.store(message.payload[0]);
    }
  });
  EXPECT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(direct.load(), 1234);
  EXPECT_EQ(broadcast.load(), 555);
}

TEST(ClassroomTags, BackToBackReducesWithDifferentRootsDoNotCrossMatch) {
  // reduce receives with a wildcard source, so before the sequence-tagged
  // collectives a slow rank in reduce(0, ...) could match a message from
  // the following reduce(1, ...). Distinct per-rank values make any
  // cross-match change the totals.
  auto plus = [](std::int64_t a, std::int64_t b) { return a + b; };
  for (int round = 0; round < 25; ++round) {
    std::atomic<std::int64_t> at_root0{-1};
    std::atomic<std::int64_t> at_root1{-1};
    auto result = rt::Classroom::run(5, [&](rt::Comm& comm) {
      const std::int64_t mine = 1ll << comm.rank();  // distinct powers
      std::int64_t first = comm.reduce(0, mine * 3, plus);
      std::int64_t second = comm.reduce(1, mine * 11, plus);
      if (comm.rank() == 0) at_root0.store(first);
      if (comm.rank() == 1) at_root1.store(second);
    });
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(at_root0.load(), 31 * 3);
    EXPECT_EQ(at_root1.load(), 31 * 11);
  }
}

TEST(ClassroomTags, InterleavedCollectivesAndUserTrafficStayCoherent) {
  // A denser mix: every rank alternates collectives with point-to-point
  // ring traffic; everything must stay correctly matched.
  auto plus = [](std::int64_t a, std::int64_t b) { return a + b; };
  auto result = rt::Classroom::run(4, [&](rt::Comm& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    for (int i = 0; i < 10; ++i) {
      comm.send(next, {comm.rank() * 100 + i}, i);
      std::int64_t total = comm.allreduce(1, plus);
      EXPECT_EQ(total, comm.size());
      auto message = comm.recv(prev, i);
      EXPECT_EQ(message.payload[0], prev * 100 + i);
    }
  });
  EXPECT_TRUE(result.ok()) << result.error;
}
