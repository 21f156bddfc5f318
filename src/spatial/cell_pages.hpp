// One value per processor for the sink layer's per-cell tables.
//
// The model checkers and the LoadMap keep a count per touched processor
// and look one up per message. The destinations of a round walk along
// grid rows, so the table stores cells in strip pages: a page holds 64
// consecutive cells of one row, is found through a two-entry cache of the
// pages used last, and costs one hash lookup only when neither matches. A
// hash table keyed per cell would spread neighbouring cells over the whole
// table instead.
//
// Every slot carries the generation it was last written in, so clear()
// only advances the table's generation: it costs O(1) however many cells
// were touched, and a slot from an older generation reads as T{} on its
// first touch. Pages are never freed before the table is: a table retains
// one page per 64-cell strip it ever touched (1 KiB with 16-byte slots).
#pragma once

#include "spatial/geometry.hpp"

#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>

namespace scm {

/// Per-processor values of type T in strip pages, cleared in O(1) (see
/// the file comment).
template <typename T>
class CellPages {
 public:
  CellPages() = default;
  /// Not copyable: the page cache points into this table's pages.
  CellPages(const CellPages&) = delete;
  CellPages& operator=(const CellPages&) = delete;

  /// The value of `c`; T{} on its first touch in this generation.
  T& at(Coord c) {
    Slot& s = page(PageKey{c.row, strip(c.col)})[slot(c.col)];
    if (s.generation != generation_) s = Slot{T{}, generation_};
    return s.value;
  }

  /// The value of `c`; nullptr when `c` was not touched in this
  /// generation.
  [[nodiscard]] const T* find(Coord c) const {
    const auto it = pages_.find(PageKey{c.row, strip(c.col)});
    if (it == pages_.end()) return nullptr;
    const Slot& s = it->second[slot(c.col)];
    return s.generation == generation_ ? &s.value : nullptr;
  }

  /// Calls fn(cell, value) for every cell touched in this generation, in
  /// no set order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [key, page] : pages_) {
      for (index_t i = 0; i < kPageCells; ++i) {
        const Slot& s = page[static_cast<std::size_t>(i)];
        if (s.generation != generation_) continue;
        fn(Coord{key.row, key.strip * kPageCells + i}, s.value);
      }
    }
  }

  /// Forgets every value in O(1); pages and the page cache stay.
  void clear() { ++generation_; }

 private:
  static constexpr int kPageBits = 6;
  static constexpr index_t kPageCells = index_t{1} << kPageBits;

  struct Slot {
    T value{};
    std::uint64_t generation{0};  ///< never the table's: a new page is stale
  };
  using Page = std::array<Slot, kPageCells>;

  /// A page: its row and the column of its first cell over kPageCells.
  /// The key is the full coordinate, so no two cells alias at any range.
  struct PageKey {
    index_t row{0};
    index_t strip{0};

    friend bool operator==(const PageKey&, const PageKey&) = default;
  };
  struct PageKeyHash {
    std::size_t operator()(const PageKey& k) const {
      return (static_cast<std::uint64_t>(k.row) * 0x9E3779B97F4A7C15ULL +
              static_cast<std::uint64_t>(k.strip)) *
             0xC2B2AE3D27D4EB4FULL;
    }
  };
  struct Recent {
    PageKey key;
    Page* page{nullptr};
  };

  /// Arithmetic shifts and masks round down, negative columns included.
  static index_t strip(index_t col) { return col >> kPageBits; }
  static std::size_t slot(index_t col) {
    return static_cast<std::size_t>(col & (kPageCells - 1));
  }

  /// The page under `key`, created stale on first use. Map nodes are
  /// pointer-stable, so cached pointers stay valid for the table's life.
  Page& page(const PageKey& key) {
    if (recent_[0].key == key && recent_[0].page != nullptr) {
      return *recent_[0].page;
    }
    if (recent_[1].key == key && recent_[1].page != nullptr) {
      std::swap(recent_[0], recent_[1]);
    } else {
      recent_[1] = recent_[0];
      recent_[0] = Recent{key, &pages_[key]};
    }
    return *recent_[0].page;
  }

  std::unordered_map<PageKey, Page, PageKeyHash> pages_;
  std::array<Recent, 2> recent_{};  ///< most recently used first
  std::uint64_t generation_{1};
};

}  // namespace scm
