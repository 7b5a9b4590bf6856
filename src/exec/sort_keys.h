// Order-preserving fixed-width sort keys — the one key representation of the
// three order operators (Sort, TopK and the merging Exchange's cursor).
//
// Each ORDER BY key becomes one uint64_t word per row, gathered a batch at a
// time from the typed column views, such that unsigned comparison of the
// words is the key order:
//
//   - Numbers (int, ref, double, and null, which Value::Compare reads as
//     0.0) encode the double that Value::Compare converts them to: -0.0 is
//     canonicalized to +0.0, NaN to one quiet NaN, and the IEEE bits are
//     flipped so that unsigned order is numeric order. Ints beyond 2^53 that
//     round to the same double stay tied, exactly as Value::Compare ties them.
//   - Strings encode their first 8 bytes big-endian (unsigned bytes, zero
//     padded). Equal prefixes fall back to std::string::compare on the row's
//     stored value, read through the row's slot.
//   - A descending key inverts its word (and its fallback's sign).
//
// Value::Compare is not a strict weak order everywhere: a string compares to
// every number as if it were 0.0, and NaN compares "greater" in both
// directions. The encoding fixes one total order (TotalCompare) that equals
// Value::Compare wherever that is a strict weak order — among numbers
// without NaN, and among strings — and elsewhere is: every number (null
// included) before every string; NaN after +inf; all NaNs equal.
//
// Rows that tie on every key are left to the caller, which breaks the tie by
// input position (Sort, TopK) or partition index (merge), so the result is
// the stable sort.
#ifndef OODB_EXEC_SORT_KEYS_H_
#define OODB_EXEC_SORT_KEYS_H_

#include <cstdint>
#include <vector>

#include "src/exec/tuple.h"
#include "src/physical/phys_props.h"

namespace oodb {

/// The documented total order over key values (see above): three-way.
int TotalCompare(const Value& a, const Value& b);

/// Encodes the keys of one ORDER BY and compares encoded rows.
class SortKeyCodec {
 public:
  /// `keys` is the operator's sort order; each key reads field `field` of
  /// binding `binding`. Columns of string-declared fields take the string
  /// layout; every other column is gathered through the store's dense
  /// projection when it has one.
  SortKeyCodec(const std::vector<SortKey>& keys, ObjectStore* store,
               const QueryContext* ctx);

  /// Words per encoded row (one per key).
  size_t words() const { return keys_.size(); }

  /// The order words of a batch's live rows, row k at words[k*words()], and
  /// the live position of the first row with an unloaded key component —
  /// rows from there on have no words — or active() when every row encoded.
  struct Encoded {
    const uint64_t* words = nullptr;
    size_t good = 0;
  };

  /// Encodes the keys of `batch`'s live rows. A batch carrying words for
  /// exactly this codec's keys (TupleBatch::SortWords: rows a Sort or TopK
  /// on the same order emitted) and no selection is served its own words,
  /// and `out` is left untouched; any other batch is gathered and encoded
  /// into `out`, which must hold active() * words() words.
  Encoded Encode(TupleBatch* batch, uint64_t* out) const;

  /// The status reading `row`'s keys fails with: what the row Encode stopped
  /// at reports (the attribute-read error of its first unloaded key).
  Status KeyError(TupleRef row) const;

  /// Three-way comparison of encoded rows `a` and `b` on keys [lo, hi);
  /// `ra`/`rb` are the rows themselves, read only for the string fallback.
  int Compare(const uint64_t* a, const Slot* ra, const uint64_t* b,
              const Slot* rb, size_t lo, size_t hi) const {
    for (size_t k = lo; k < hi; ++k) {
      if (a[k] != b[k]) return a[k] < b[k] ? -1 : 1;
      const Key& key = keys_[k];
      if (key.text || (a[k] ^ key.flip) == kStringWord) {
        int c = FallbackCompare(key, ra, rb);
        if (c != 0) return c;
      }
    }
    return 0;
  }
  int Compare(const uint64_t* a, const Slot* ra, const uint64_t* b,
              const Slot* rb) const {
    return Compare(a, ra, b, rb, 0, keys_.size());
  }

  /// Stably sorts the row indices [first, last) on keys [lo, nkeys): row r
  /// has encoded keys keys[r*words()...] and slots rows[r*width...]. Rows
  /// that tie on those keys keep their order in [first, last), which must be
  /// ascending for the result to be the stable sort.
  ///
  /// Large inputs take an LSD radix sort over the order words (each byte
  /// pass is stable, so ties keep input order); then each run of rows whose
  /// words tie up to a key that needs the string fallback is re-sorted with
  /// Compare. Small inputs sort with Compare directly.
  void SortRows(const uint64_t* keys, const Slot* rows, size_t width,
                size_t lo, uint32_t* first, uint32_t* last) const;

  /// The number layout's word for a string value: above every number.
  static constexpr uint64_t kStringWord = ~uint64_t{0};

 private:
  struct Key {
    BindingId binding = kInvalidBinding;
    FieldId field = kInvalidField;
    bool text = false;  ///< string-prefix layout (string-declared field)
    bool desc = false;
    uint64_t flip = 0;  ///< XOR mask: all ones for a descending key
    const ColumnProjection* proj = nullptr;
    ScalarExprPtr attr;  ///< the key as an expression, for KeyError only
  };

  int FallbackCompare(const Key& key, const Slot* ra, const Slot* rb) const;

  /// The first key in [lo, nkeys) whose word `w` alone cannot order (a
  /// string prefix, or the number layout's string word); nkeys if none.
  size_t FallbackKey(const uint64_t* w, size_t lo) const;

  std::vector<SortKey> spec_;  ///< the keys as given: the attached-words tag
  std::vector<Key> keys_;
  const QueryContext* ctx_;
};

}  // namespace oodb

#endif  // OODB_EXEC_SORT_KEYS_H_
