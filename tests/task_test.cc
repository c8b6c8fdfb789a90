// Unit tests for the hot-path primitives behind the event loop:
// sim::Task (inline-storage move-only callable) and sim::FuncRef
// (non-owning callable view).

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <utility>

#include "sim/task.h"

namespace netstore::sim {
namespace {

// --- Task ----------------------------------------------------------------

TEST(TaskTest, SmallCaptureUsesInlineStorage) {
  const std::uint64_t inline_before = Task::inline_constructions();
  const std::uint64_t heap_before = Task::heap_constructions();

  int hits = 0;
  Task t([&hits] { hits++; });
  t();
  t();

  EXPECT_EQ(hits, 2);
  EXPECT_EQ(Task::inline_constructions(), inline_before + 1);
  EXPECT_EQ(Task::heap_constructions(), heap_before);
}

TEST(TaskTest, LargeCaptureFallsBackToHeap) {
  const std::uint64_t heap_before = Task::heap_constructions();

  // Deliberately larger than Task::kInlineSize.
  std::array<std::uint64_t, 16> big{};
  big[0] = 7;
  big[15] = 35;
  std::uint64_t sum = 0;
  Task t([big, &sum] { sum = big[0] + big[15]; });
  t();

  EXPECT_EQ(sum, 42u);
  EXPECT_EQ(Task::heap_constructions(), heap_before + 1);
}

TEST(TaskTest, MoveTransfersTheCallable) {
  int hits = 0;
  Task a([&hits] { hits++; });
  Task b(std::move(a));
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move) -- moved-from is empty
  ASSERT_TRUE(b);
  b();
  EXPECT_EQ(hits, 1);

  Task c;
  c = std::move(b);
  ASSERT_TRUE(c);
  c();
  EXPECT_EQ(hits, 2);
}

TEST(TaskTest, HoldsMoveOnlyCaptures) {
  auto owned = std::make_unique<int>(99);
  int seen = 0;
  Task t([p = std::move(owned), &seen] { seen = *p; });
  t();
  EXPECT_EQ(seen, 99);
}

TEST(TaskTest, DestroysCaptureExactlyOnce) {
  struct Probe {
    int* dtors;
    explicit Probe(int* d) : dtors(d) {}
    Probe(Probe&& o) noexcept : dtors(o.dtors) { o.dtors = nullptr; }
    Probe(const Probe&) = delete;
    ~Probe() {
      if (dtors != nullptr) (*dtors)++;
    }
  };

  int dtors = 0;
  {
    Task t([p = Probe(&dtors)] { (void)p; });
    Task moved(std::move(t));
    moved();
    EXPECT_EQ(dtors, 0);  // still alive inside `moved`
  }
  EXPECT_EQ(dtors, 1);
}

TEST(TaskTest, MoveAssignDestroysPreviousCallable) {
  int first_dtors = 0;
  struct Probe {
    int* dtors;
    explicit Probe(int* d) : dtors(d) {}
    Probe(Probe&& o) noexcept : dtors(o.dtors) { o.dtors = nullptr; }
    Probe(const Probe&) = delete;
    ~Probe() {
      if (dtors != nullptr) (*dtors)++;
    }
  };

  Task t([p = Probe(&first_dtors)] { (void)p; });
  t = Task([] {});
  EXPECT_EQ(first_dtors, 1);
}

// --- FuncRef -------------------------------------------------------------

TEST(FuncRefTest, CallsThroughToTheBorrowedCallable) {
  int calls = 0;
  auto fn = [&calls](int x) { calls += x; };
  FuncRef<void(int)> ref(fn);
  ref(2);
  ref(3);
  EXPECT_EQ(calls, 5);
}

TEST(FuncRefTest, ReturnsValues) {
  auto twice = [](int x) { return 2 * x; };
  FuncRef<int(int)> ref(twice);
  EXPECT_EQ(ref(21), 42);
}

TEST(FuncRefTest, NullIsFalsy) {
  FuncRef<void()> ref(nullptr);
  EXPECT_FALSE(ref);
  auto fn = [] {};
  ref = FuncRef<void()>(fn);
  EXPECT_TRUE(ref);
}

TEST(FuncRefTest, SeesMutationsInTheReferencedCallable) {
  int counter = 0;
  auto fn = [&counter] { return ++counter; };
  FuncRef<int()> ref(fn);
  fn();
  EXPECT_EQ(ref(), 2);  // same underlying state, not a copy
}

}  // namespace
}  // namespace netstore::sim
