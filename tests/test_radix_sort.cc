// Property tests for the stable radix permutation sort (util/radix_sort.h):
// every case asserts the exact std::stable_sort order, since the generator
// fast path's byte-identity guarantee rests on that equivalence.
#include "util/radix_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "util/parallel.h"
#include "util/rng.h"

namespace mcloud {
namespace {

/// Reference order: std::stable_sort of row indices under the same
/// lexicographic multi-component key the sorter sees.
std::vector<std::uint32_t> StableSortReference(
    std::size_t n, std::span<const RadixKey> keys) {
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  std::stable_sort(perm.begin(), perm.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     for (const RadixKey& k : keys) {
                       const std::uint64_t x = k.at(a);
                       const std::uint64_t y = k.at(b);
                       if (x != y) return x < y;
                     }
                     return false;
                   });
  return perm;
}

void ExpectMatchesStableSort(std::span<const RadixKey> keys, std::size_t n) {
  StableRadixSorter sorter;
  const std::span<const std::uint32_t> got = sorter.Sort(n, keys);
  const std::vector<std::uint32_t> want = StableSortReference(n, keys);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t j = 0; j < n; ++j)
    ASSERT_EQ(got[j], want[j]) << "rank " << j;
}

TEST(RadixSort, EmptyAndSingle) {
  StableRadixSorter sorter;
  const std::vector<std::int64_t> one = {42};
  const RadixKey keys[1] = {RadixKey::I64(one)};
  EXPECT_TRUE(sorter.Sort(0, keys).empty());
  const auto perm = sorter.Sort(1, keys);
  ASSERT_EQ(perm.size(), 1u);
  EXPECT_EQ(perm[0], 0u);
}

TEST(RadixSort, AllEqualKeysIsIdentity) {
  // Degenerate day: every session at the same timestamp. Stability demands
  // the identity permutation. Sized above kSmallN to hit the radix path.
  const std::size_t n = 4 * StableRadixSorter::kSmallN;
  const std::vector<std::int64_t> ts(n, 1404172800);
  const RadixKey keys[1] = {RadixKey::I64(ts)};
  StableRadixSorter sorter;
  const auto perm = sorter.Sort(n, keys);
  for (std::size_t j = 0; j < n; ++j) ASSERT_EQ(perm[j], j);
}

TEST(RadixSort, NegativeAndCrossMidnightKeys) {
  // Signed keys straddling zero (timestamps relative to an epoch mid-trace)
  // must order sign-correctly through the bias mapping.
  std::vector<std::int64_t> ts;
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t base =
        static_cast<std::int64_t>(rng.UniformInt(5)) * 86400 - 2 * 86400;
    ts.push_back(base + static_cast<std::int64_t>(rng.UniformInt(86400)));
  }
  ts.push_back(INT64_MIN);
  ts.push_back(INT64_MAX);
  ts.push_back(0);
  ts.push_back(-1);
  ts.push_back(1);
  const RadixKey keys[1] = {RadixKey::I64(ts)};
  ExpectMatchesStableSort(keys, ts.size());
}

TEST(RadixSort, SmallNBoundary) {
  // Both sides of the kSmallN cutoff take different code paths; the order
  // must agree with the reference on each.
  Rng rng(11);
  for (const std::size_t n :
       {StableRadixSorter::kSmallN - 1, StableRadixSorter::kSmallN,
        StableRadixSorter::kSmallN + 1}) {
    std::vector<std::uint64_t> users;
    std::vector<std::int64_t> ts;
    for (std::size_t i = 0; i < n; ++i) {
      users.push_back(rng.UniformInt(16));  // heavy ties
      ts.push_back(static_cast<std::int64_t>(rng.UniformInt(8)));
    }
    const RadixKey keys[2] = {RadixKey::I64(ts), RadixKey::U64(users)};
    ExpectMatchesStableSort(keys, n);
  }
}

TEST(RadixSort, MultiComponentMatchesLexicographicOrder) {
  // Three components like the record order (timestamp, user, device) with
  // deliberate tie structure at every level.
  Rng rng(13);
  const std::size_t n = 50000;
  std::vector<std::int64_t> ts;
  std::vector<std::uint64_t> users;
  std::vector<std::uint64_t> devices;
  for (std::size_t i = 0; i < n; ++i) {
    ts.push_back(1404172800 + static_cast<std::int64_t>(rng.UniformInt(600)));
    users.push_back(rng.UniformInt(300));
    // Device ids straddle the PC range bit like real traces do.
    devices.push_back(rng.Bernoulli(0.3) ? (1ULL << 48) + rng.UniformInt(300)
                                         : rng.UniformInt(1000));
  }
  const RadixKey keys[3] = {RadixKey::I64(ts), RadixKey::U64(users),
                            RadixKey::U64(devices)};
  ExpectMatchesStableSort(keys, n);
}

TEST(RadixSort, MillionRowShuffleMatchesStableSort) {
  // Paper-scale single-component stress: 1M rows, many duplicates, full
  // shuffle. Also exercises scratch reuse by sorting twice with one sorter.
  Rng rng(17);
  const std::size_t n = 1'000'000;
  std::vector<std::int64_t> ts;
  ts.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    ts.push_back(1404172800 +
                 static_cast<std::int64_t>(rng.UniformInt(7 * 86400)));
  const RadixKey keys[1] = {RadixKey::I64(ts)};
  const std::vector<std::uint32_t> want = StableSortReference(n, keys);
  StableRadixSorter sorter;
  for (int round = 0; round < 2; ++round) {
    const auto got = sorter.Sort(n, keys);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t j = 0; j < n; ++j)
      ASSERT_EQ(got[j], want[j]) << "round " << round << " rank " << j;
  }
}

/// Sort on pools of 1, 2, 3, 4 and 7 threads must give the serial
/// permutation, which must be the std::stable_sort order. One sorter serves
/// every pool size, so the scratch reuse across block counts is covered too.
void ExpectSameAtEveryThreadCount(std::span<const RadixKey> keys,
                                  std::size_t n) {
  StableRadixSorter sorter;
  const std::span<const std::uint32_t> serial = sorter.Sort(n, keys);
  const std::vector<std::uint32_t> want(serial.begin(), serial.end());
  ASSERT_EQ(want, StableSortReference(n, keys));
  for (const int threads : {1, 2, 3, 4, 7}) {
    ThreadPool pool(threads);
    const std::span<const std::uint32_t> got = sorter.Sort(n, keys, &pool);
    ASSERT_EQ(got.size(), n);
    for (std::size_t j = 0; j < n; ++j)
      ASSERT_EQ(got[j], want[j]) << threads << " threads, rank " << j;
  }
}

constexpr std::size_t kCutoff = StableRadixSorter::kParallelMinN;

TEST(RadixSortParallel, FusedKeyMatchesAtEveryThreadCount) {
  // The record order's three components (~57 varying bits: the fused
  // path); n is odd and not a multiple of 3 or 7, so blocks are uneven.
  Rng rng(19);
  const std::size_t n = 3 * kCutoff + 5;
  std::vector<std::int64_t> ts;
  std::vector<std::uint64_t> users;
  std::vector<std::uint64_t> devices;
  for (std::size_t i = 0; i < n; ++i) {
    ts.push_back(1404172800 +
                 static_cast<std::int64_t>(rng.UniformInt(7 * 86400)));
    users.push_back(rng.UniformInt(100000));
    devices.push_back(rng.Bernoulli(0.3) ? (1ULL << 48) + rng.UniformInt(5000)
                                         : rng.UniformInt(300000));
  }
  const RadixKey keys[3] = {RadixKey::I64(ts), RadixKey::U64(users),
                            RadixKey::U64(devices)};
  ExpectSameAtEveryThreadCount(keys, n);
}

TEST(RadixSortParallel, PerComponentPathMatchesAtEveryThreadCount) {
  // Two full-width components (>64 varying bits: one counting run per
  // component), drawn from a few values each so ties are heavy.
  Rng rng(23);
  std::vector<std::uint64_t> hi_values(8);
  std::vector<std::uint64_t> lo_values(16);
  for (auto& v : hi_values) v = rng.NextU64();
  for (auto& v : lo_values) v = rng.NextU64();
  const std::size_t n = kCutoff + 1001;
  std::vector<std::uint64_t> hi;
  std::vector<std::uint64_t> lo;
  for (std::size_t i = 0; i < n; ++i) {
    hi.push_back(hi_values[rng.UniformInt(hi_values.size())]);
    lo.push_back(lo_values[rng.UniformInt(lo_values.size())]);
  }
  const RadixKey keys[2] = {RadixKey::U64(hi), RadixKey::U64(lo)};
  ExpectSameAtEveryThreadCount(keys, n);
}

TEST(RadixSortParallel, AllEqualKeysStayIdentity) {
  const std::size_t n = 2 * kCutoff + 1;
  const std::vector<std::int64_t> ts(n, 1404172800);
  const std::vector<std::uint64_t> users(n, 7);
  const RadixKey keys[2] = {RadixKey::I64(ts), RadixKey::U64(users)};
  ExpectSameAtEveryThreadCount(keys, n);
}

TEST(RadixSortParallel, HeavyTiesKeepInputOrder) {
  Rng rng(29);
  const std::size_t n = 2 * kCutoff + 3;
  std::vector<std::uint64_t> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(rng.UniformInt(4));
  const RadixKey keys[1] = {RadixKey::U64(v)};
  ExpectSameAtEveryThreadCount(keys, n);
}

TEST(RadixSortParallel, SignedKeysMatchAtEveryThreadCount) {
  Rng rng(31);
  std::vector<std::int64_t> v;
  for (std::size_t i = 0; i < kCutoff + 17; ++i)
    v.push_back(static_cast<std::int64_t>(rng.UniformInt(200000)) - 100000);
  v.push_back(INT64_MIN);
  v.push_back(INT64_MAX);
  v.push_back(-1);
  v.push_back(0);
  const RadixKey keys[1] = {RadixKey::I64(v)};
  ExpectSameAtEveryThreadCount(keys, v.size());
}

TEST(RadixSortParallel, BothSidesOfTheParallelCutoff) {
  // Below the cutoff the pool is ignored; at and above it the rows split
  // into blocks. n = 4 * cutoff + 3 is not a multiple of 2, 3, 4 or 7.
  Rng rng(37);
  for (const std::size_t n :
       {kCutoff - 1, kCutoff, kCutoff + 1, 4 * kCutoff + 3}) {
    std::vector<std::int64_t> ts;
    std::vector<std::uint64_t> users;
    for (std::size_t i = 0; i < n; ++i) {
      ts.push_back(static_cast<std::int64_t>(rng.UniformInt(3000)));
      users.push_back(rng.UniformInt(50));
    }
    const RadixKey keys[2] = {RadixKey::I64(ts), RadixKey::U64(users)};
    ExpectSameAtEveryThreadCount(keys, n);
  }
}

}  // namespace
}  // namespace mcloud
