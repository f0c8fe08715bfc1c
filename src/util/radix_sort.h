// Stable LSD radix permutation sort over multi-component 64-bit keys.
//
// The workload generator's hot path sorts multi-million-record runs by
// (timestamp, user, device) and session runs by (start, user). Comparison
// sorting pays O(n log n) comparator calls, each touching a ~100-byte
// record; this sorter instead computes the *stable ascending permutation*
// of the rows from packed 16-byte (key, index) pairs in O(n) counting-sort
// passes, and the caller applies it with one gather per column. The result
// is provably the std::stable_sort order: every counting-sort pass is
// stable, components are processed least-significant first (classic LSD),
// and ties keep the input order because the pair index rides along.
//
// Four twists keep the pass count low and the cores busy without changing
// the order:
//   * Varying-bit compression. Before sorting a component, one scan computes
//     the OR and AND aggregates of its values; bit positions where all
//     values agree cannot influence the order, so only the varying bit
//     ranges are extracted (shift/mask, preserving significance order) into
//     a compact key. A one-week timestamp column collapses to ~20 bits (2
//     passes); a device-id column whose values straddle the PC range bit
//     (1<<48) collapses to its few populated ranges instead of 49 bits.
//     Extracting identical bit positions from every value is order-
//     preserving exactly because the dropped bits are equal everywhere.
//   * Key fusion. When the varying bits of ALL components fit in 64 —
//     always true for generator traces (≈20 ts + ≈17 user + ≈20 device) —
//     the components are packed into a single compressed key, most
//     significant component highest, and sorted in one run of digit
//     passes. Lexicographic order on the component tuple equals numeric
//     order on the fused key because the fields occupy disjoint bit
//     ranges in significance order; one pack loop and ~4 counting passes
//     replace the per-component pack + passes.
//   * Small-run cutoff. Below kSmallN rows the counting tables dwarf the
//     data; the sorter falls back to std::stable_sort on the permutation
//     with a lexicographic key comparator — the same order by definition.
//   * Parallel blocks. Given a ThreadPool and at least kParallelMinN rows,
//     the rows split into one contiguous block per pool thread. The
//     aggregate scans are per-block reductions (OR/AND are order-free), the
//     pack writes each block's pairs in place, and every counting pass
//     counts a digit histogram per block, takes one exclusive prefix in
//     bucket-major, block-minor order, and scatters each block's rows in
//     index order from its own offsets. Within a bucket, block k's rows
//     land after every row of blocks < k and in their scan order, which is
//     exactly where the serial pass puts them — so the permutation is
//     identical for every block count, one block being the serial pass.
//
// All scratch (pair buffers, counting tables, permutation) lives in the
// sorter object and is reused across calls, so steady-state sorting
// allocates nothing once high-water capacity is reached. The buffers skip
// value-initialisation on growth: every element is written before it is
// read, and the first write — on the pool — is what faults the pages in.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "util/error.h"
#include "util/parallel.h"

namespace mcloud {

/// One key component: a borrowed view of n unsigned or signed 64-bit
/// values. Signed values are mapped through a sign-flip bias so unsigned
/// digit comparison reproduces signed order.
struct RadixKey {
  const std::uint64_t* u64 = nullptr;
  const std::int64_t* i64 = nullptr;

  [[nodiscard]] static RadixKey U64(std::span<const std::uint64_t> c) {
    RadixKey k;
    k.u64 = c.data();
    return k;
  }
  [[nodiscard]] static RadixKey I64(std::span<const std::int64_t> c) {
    RadixKey k;
    k.i64 = c.data();
    return k;
  }

  [[nodiscard]] std::uint64_t at(std::size_t i) const {
    return u64 ? u64[i]
               : static_cast<std::uint64_t>(i64[i]) ^ (1ULL << 63);
  }
};

class StableRadixSorter {
 public:
  /// Rows below this go through std::stable_sort on the permutation (same
  /// order, no counting-table overhead). Exposed for the property tests.
  static constexpr std::size_t kSmallN = 128;
  /// Rows from which Sort splits its work over the pool. Below it the
  /// per-block histograms and task dispatch cost more than they save, and
  /// the sorter runs as one block on the calling thread.
  static constexpr std::size_t kParallelMinN = std::size_t{1} << 16;

  /// Compute the stable ascending permutation of rows [0, n) under the
  /// lexicographic key (keys[0], keys[1], ...), keys[0] most significant.
  /// The returned span is owned by the sorter and valid until the next
  /// Sort call. perm[j] = index of the row ranked j. With a pool the work
  /// runs on its threads; the permutation is the same for every pool size
  /// and without one.
  std::span<const std::uint32_t> Sort(std::size_t n,
                                      std::span<const RadixKey> keys,
                                      ThreadPool* pool = nullptr) {
    MCLOUD_REQUIRE(n <= UINT32_MAX, "radix sort permutation is 32-bit");
    pool_ = pool;
    blocks_ = pool != nullptr && n >= kParallelMinN
                  ? static_cast<std::size_t>(pool->threads())
                  : 1;
    perm_.resize(n);
    if (n < kSmallN || keys.empty()) {
      for (std::size_t i = 0; i < n; ++i)
        perm_[i] = static_cast<std::uint32_t>(i);
      if (n < 2 || keys.empty()) return perm_;
      std::stable_sort(perm_.begin(), perm_.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         for (const RadixKey& k : keys) {
                           const std::uint64_t x = k.at(a);
                           const std::uint64_t y = k.at(b);
                           if (x != y) return x < y;
                         }
                         return false;
                       });
      return perm_;
    }

    // Plan every component up front from its varying bits, yielding the
    // extraction runs and the compressed width.
    const int total_bits = PlanComponents(n, keys);
    if (total_bits == 0) {  // all rows equal: stable no-op
      Identity(n);
    } else if (total_bits <= 64) {
      FusedPass(n, keys, total_bits);
    } else {
      // LSD over components: least-significant component first; each
      // component pass is a stable sort of the current permutation.
      Identity(n);
      for (std::size_t c = keys.size(); c-- > 0;)
        if (plans_[c].bits > 0) ComponentPass(n, keys[c], plans_[c]);
    }
    return perm_;
  }

  /// Last permutation computed (same lifetime rules as Sort's result).
  [[nodiscard]] std::span<const std::uint32_t> perm() const { return perm_; }

 private:
  /// std::allocator, except that resize() default-initialises new trivial
  /// elements (leaves them unwritten) instead of zeroing them serially.
  template <typename T>
  struct UninitAllocator {
    using value_type = T;
    UninitAllocator() = default;
    template <typename U>
    UninitAllocator(const UninitAllocator<U>&) noexcept {}
    T* allocate(std::size_t n) { return std::allocator<T>{}.allocate(n); }
    void deallocate(T* p, std::size_t n) noexcept {
      std::allocator<T>{}.deallocate(p, n);
    }
    template <typename U, typename... Args>
    void construct(U* p, Args&&... args) {
      if constexpr (sizeof...(Args) == 0)
        ::new (static_cast<void*>(p)) U;
      else
        ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
    friend bool operator==(UninitAllocator, UninitAllocator) { return true; }
  };
  template <typename T>
  using Buffer = std::vector<T, UninitAllocator<T>>;

  struct Pair {
    std::uint64_t key;
    std::uint32_t idx;
  };
  /// A contiguous run of varying bits: extract (v >> shift_in) & mask and
  /// place it at shift_out in the compressed key.
  struct BitRun {
    int shift_in;
    int shift_out;
    std::uint64_t mask;
  };
  /// One component's extraction plan: its BitRuns live in runs_[run_begin,
  /// run_end) and produce a `bits`-wide compressed value.
  struct ComponentPlan {
    std::size_t run_begin = 0;
    std::size_t run_end = 0;
    int bits = 0;
  };
  /// One block's OR and AND of one component.
  struct Aggregate {
    std::uint64_t all_or;
    std::uint64_t all_and;
  };

  /// body(block, begin, end) over the blocks_ contiguous row blocks of
  /// [0, n), in index order: inline for one block, else one pool task each.
  template <typename Body>
  void ForBlocks(std::size_t n, const Body& body) {
    if (blocks_ == 1) {
      body(0, 0, n);
      return;
    }
    pool_->Run(blocks_, [&](std::size_t k) {
      body(k, n * k / blocks_, n * (k + 1) / blocks_);
    });
  }

  void Identity(std::size_t n) {
    ForBlocks(n, [&](std::size_t, std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i)
        perm_[i] = static_cast<std::uint32_t>(i);
    });
  }

  /// Fills plans_/runs_ from one aggregate scan per component (reduced over
  /// the blocks) and returns the total compressed width.
  int PlanComponents(std::size_t n, std::span<const RadixKey> keys) {
    const std::size_t nk = keys.size();
    aggregates_.resize(blocks_ * nk);
    ForBlocks(n, [&](std::size_t k, std::size_t begin, std::size_t end) {
      for (std::size_t c = 0; c < nk; ++c) {
        std::uint64_t all_or = 0;
        std::uint64_t all_and = ~0ULL;
        for (std::size_t i = begin; i < end; ++i) {
          const std::uint64_t v = keys[c].at(i);
          all_or |= v;
          all_and &= v;
        }
        aggregates_[k * nk + c] = {all_or, all_and};
      }
    });
    plans_.clear();
    runs_.clear();
    int total_bits = 0;
    for (std::size_t c = 0; c < nk; ++c) {
      Aggregate a{0, ~0ULL};
      for (std::size_t k = 0; k < blocks_; ++k) {
        a.all_or |= aggregates_[k * nk + c].all_or;
        a.all_and &= aggregates_[k * nk + c].all_and;
      }
      plans_.push_back(PlanComponent(a.all_or & ~a.all_and));
      total_bits += plans_.back().bits;
    }
    return total_bits;
  }

  /// Bit positions where every value agrees are constant and cannot affect
  /// the order; only the `varying` ones are extracted.
  ComponentPlan PlanComponent(std::uint64_t varying) {
    ComponentPlan plan;
    plan.run_begin = runs_.size();
    int out_pos = 0;
    std::uint64_t rest = varying;
    while (rest != 0) {
      const int lo = std::countr_zero(rest);
      const std::uint64_t aligned = rest >> lo;
      const int len = std::countr_one(aligned);
      const std::uint64_t mask = len >= 64 ? ~0ULL : ((1ULL << len) - 1);
      runs_.push_back({lo, out_pos, mask});
      out_pos += len;
      rest &= ~(mask << lo);
    }
    plan.run_end = runs_.size();
    plan.bits = out_pos;
    return plan;
  }

  [[nodiscard]] std::uint64_t Compress(const RadixKey& key,
                                       const ComponentPlan& plan,
                                       std::uint32_t idx) const {
    const std::uint64_t v = key.at(idx);
    std::uint64_t ck = 0;
    for (std::size_t r = plan.run_begin; r < plan.run_end; ++r)
      ck |= ((v >> runs_[r].shift_in) & runs_[r].mask) << runs_[r].shift_out;
    return ck;
  }

  /// All components in one go: pack component c's compressed value above
  /// the combined width of the less-significant components c+1.., then run
  /// the digit passes once over the fused key. The input order is the
  /// identity, so row j packs as pair j.
  void FusedPass(std::size_t n, std::span<const RadixKey> keys,
                 int total_bits) {
    pairs_a_.resize(n);
    pairs_b_.resize(n);
    ForBlocks(n, [&](std::size_t, std::size_t begin, std::size_t end) {
      for (std::size_t j = begin; j < end; ++j) {
        const auto idx = static_cast<std::uint32_t>(j);
        std::uint64_t fused = 0;
        for (std::size_t c = 0; c < keys.size(); ++c) {
          const int bits = plans_[c].bits;
          if (bits == 0) continue;
          // A 64-bit component is the only varying one: fused is still 0.
          if (bits < 64) fused <<= bits;
          fused |= Compress(keys[c], plans_[c], idx);
        }
        pairs_a_[j] = {fused, idx};
      }
    });
    CountingPasses(n, total_bits);
  }

  void ComponentPass(std::size_t n, const RadixKey& key,
                     const ComponentPlan& plan) {
    // Pack pairs in current permutation order; the index carries stability.
    pairs_a_.resize(n);
    pairs_b_.resize(n);
    ForBlocks(n, [&](std::size_t, std::size_t begin, std::size_t end) {
      for (std::size_t j = begin; j < end; ++j) {
        const std::uint32_t idx = perm_[j];
        pairs_a_[j] = {Compress(key, plan, idx), idx};
      }
    });
    CountingPasses(n, plan.bits);
  }

  /// 16-bit-digit counting-sort passes over pairs_a_, ping-ponging between
  /// the buffers; the last pass scatters just the indices into perm_.
  void CountingPasses(std::size_t n, int total_bits) {
    Pair* cur = pairs_a_.data();
    Pair* nxt = pairs_b_.data();
    for (int shift = 0; shift < total_bits; shift += 16) {
      const int digit_bits = std::min(16, total_bits - shift);
      const std::size_t buckets = std::size_t{1} << digit_bits;
      const std::uint64_t digit_mask = buckets - 1;
      const bool last = shift + digit_bits >= total_bits;
      // hist_[k * buckets + d]: rows of block k with digit d.
      hist_.resize(blocks_ * buckets);
      ForBlocks(n, [&](std::size_t k, std::size_t begin, std::size_t end) {
        std::uint32_t* h = hist_.data() + k * buckets;
        std::fill(h, h + buckets, 0u);
        for (std::size_t j = begin; j < end; ++j)
          ++h[(cur[j].key >> shift) & digit_mask];
      });
      // Exclusive prefix in bucket-major, block-minor order: block k's rows
      // of digit d follow all rows of smaller digits and the digit-d rows
      // of blocks < k.
      std::uint32_t offset = 0;
      for (std::size_t d = 0; d < buckets; ++d) {
        for (std::size_t k = 0; k < blocks_; ++k) {
          std::uint32_t& h = hist_[k * buckets + d];
          const std::uint32_t count = h;
          h = offset;
          offset += count;
        }
      }
      ForBlocks(n, [&](std::size_t k, std::size_t begin, std::size_t end) {
        std::uint32_t* at = hist_.data() + k * buckets;
        if (last) {
          for (std::size_t j = begin; j < end; ++j)
            perm_[at[(cur[j].key >> shift) & digit_mask]++] = cur[j].idx;
        } else {
          for (std::size_t j = begin; j < end; ++j)
            nxt[at[(cur[j].key >> shift) & digit_mask]++] = cur[j];
        }
      });
      std::swap(cur, nxt);
    }
  }

  ThreadPool* pool_ = nullptr;
  std::size_t blocks_ = 1;
  Buffer<std::uint32_t> perm_;
  Buffer<Pair> pairs_a_;
  Buffer<Pair> pairs_b_;
  Buffer<std::uint32_t> hist_;
  std::vector<Aggregate> aggregates_;
  std::vector<BitRun> runs_;
  std::vector<ComponentPlan> plans_;
};

}  // namespace mcloud
