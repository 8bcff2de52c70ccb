// p2pgen — Query Routing Protocol (QRP) tables.
//
// Paper Section 3.1: "A QUERY message is forwarded to all ultrapeer
// nodes, but is only forwarded to the leaf nodes that have a high
// probability of responding."  The mechanism behind that sentence is
// QRP: each leaf summarizes the keywords of its shared files in a
// hash-bit table and sends it to its ultrapeers (the X-Query-Routing
// handshake header negotiates support); an ultrapeer forwards a query to
// a leaf only if every keyword of the query hits the leaf's table.
//
// The table is a Bloom-filter-like bit array addressed by the classic QRP
// hash (Gnutella QRP spec v0.1: multiplicative hashing of lower-cased
// keywords).  False positives cause spurious forwards (harmless); false
// negatives cannot occur for inserted keywords.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace p2pgen::gnutella {

/// A QRP keyword-hash table.
class QrpTable {
 public:
  /// `log2_size` — table holds 2^log2_size bits (spec default: 16).
  explicit QrpTable(unsigned log2_size = 16);

  /// The QRP keyword hash: multiplicative hash of the lower-cased word,
  /// reduced to `bits` bits.  Matches the classic QRP v0.1 construction.
  static std::uint32_t hash_keyword(std::string_view keyword, unsigned bits);

  /// Inserts one keyword.
  void insert_keyword(std::string_view keyword);

  /// Inserts every whitespace-separated keyword of a file name / title.
  void insert_keywords_of(std::string_view text);

  /// True iff EVERY keyword of `query` hits the table (QRP forwards only
  /// on full conjunction).  An empty keyword set never matches.
  bool might_match(std::string_view query) const;

  /// The full-width (32-bit) hash of every keyword of `query`, in order,
  /// written into `out`: one tokenization serves tables of any size.
  static void keyword_hashes(std::string_view query,
                             std::vector<std::uint32_t>& out);

  /// might_match() on pre-hashed keywords: true iff `hashes` is non-empty
  /// and each one's slot in this table is set.  For any query,
  /// contains_all(keyword_hashes(query)) == might_match(query).
  bool contains_all(std::span<const std::uint32_t> hashes) const;

  /// Bitwise OR of another table (ultrapeers aggregate leaf tables).
  /// Requires equal sizes.
  void merge(const QrpTable& other);

  /// Fraction of bits set (the spec caps useful fill around ~5 %).
  double fill_ratio() const;

  std::size_t bit_count() const noexcept { return std::size_t{1} << log2_size_; }
  unsigned log2_size() const noexcept { return log2_size_; }

  /// Serializes to the patch payload (one bit per entry, packed); the
  /// real protocol compresses and diffs, which the trace analysis never
  /// observes, so the uncompressed form suffices here.
  std::vector<std::uint8_t> to_patch() const;

  /// Reconstructs from a patch.  Throws std::invalid_argument on a size
  /// that is not a power-of-two number of bits.
  static QrpTable from_patch(const std::vector<std::uint8_t>& patch);

 private:
  bool test(std::uint32_t slot) const noexcept {
    return (words_[slot >> 6] >> (slot & 63)) & 1u;
  }

  unsigned log2_size_;
  std::vector<std::uint64_t> words_;  // bit i is bit i % 64 of word i / 64
  std::size_t set_count_ = 0;
};

}  // namespace p2pgen::gnutella
