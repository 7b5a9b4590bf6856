#include "src/exec/sort_keys.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "src/storage/object_store.h"

namespace oodb {

namespace {

constexpr uint64_t kSignBit = uint64_t{1} << 63;

/// The double Value::Compare reads a value as: ints convert, null and
/// strings read their (zero) double member.
double NumberOf(const Value& v) {
  return v.kind == Value::Kind::kInt ? static_cast<double>(v.i) : v.d;
}

/// Order word of a number: sign-magnitude IEEE bits flipped into unsigned
/// order. -0.0 joins +0.0 and every NaN one quiet NaN, which lands above
/// +inf and below the number layout's string word.
uint64_t NumberWord(double d) {
  if (d == 0.0) d = 0.0;
  if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
  uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return (u & kSignBit) != 0 ? ~u : u | kSignBit;
}

/// Order word of a string: its first 8 bytes big-endian, zero padded.
uint64_t PrefixWord(const std::string& s) {
  uint64_t w = 0;
  const size_t n = std::min<size_t>(s.size(), 8);
  for (size_t i = 0; i < n; ++i) {
    w |= static_cast<uint64_t>(static_cast<unsigned char>(s[i]))
         << (56 - 8 * i);
  }
  return w;
}

/// Order word of a stored value: the string-prefix layout when `text`,
/// else the number layout.
uint64_t ValueWord(const Value& v, bool text) {
  const bool str = v.kind == Value::Kind::kString;
  if (text) return str ? PrefixWord(v.s) : 0;
  return str ? SortKeyCodec::kStringWord : NumberWord(NumberOf(v));
}

}  // namespace

int TotalCompare(const Value& a, const Value& b) {
  const bool as = a.kind == Value::Kind::kString;
  const bool bs = b.kind == Value::Kind::kString;
  if (as != bs) return as ? 1 : -1;
  if (as) {
    int c = a.s.compare(b.s);
    return (c > 0) - (c < 0);
  }
  uint64_t wa = NumberWord(NumberOf(a)), wb = NumberWord(NumberOf(b));
  return (wa > wb) - (wa < wb);
}

SortKeyCodec::SortKeyCodec(const std::vector<SortKey>& keys,
                           ObjectStore* store, const QueryContext* ctx)
    : spec_(keys), ctx_(ctx) {
  keys_.reserve(keys.size());
  for (const SortKey& k : keys) {
    Key key;
    key.binding = k.binding;
    key.field = k.field;
    key.desc = k.desc;
    key.flip = k.desc ? ~uint64_t{0} : 0;
    key.attr = ScalarExpr::Attr(k.binding, k.field);
    const TypeId type = ctx->bindings.def(k.binding).type;
    key.text = store->catalog().schema().type(type).field(k.field).kind ==
               FieldKind::kString;
    if (!key.text) key.proj = store->Projection(type, k.field);
    keys_.push_back(std::move(key));
  }
}

SortKeyCodec::Encoded SortKeyCodec::Encode(TupleBatch* batch,
                                           uint64_t* out) const {
  if (!batch->has_selection()) {
    if (const uint64_t* words = batch->SortWords(spec_)) {
      return {words, batch->size()};
    }
  }
  const size_t nw = keys_.size();
  size_t good = batch->active();
  for (size_t k = 0; k < nw; ++k) {
    const Key& key = keys_[k];
    uint64_t* dst = out + k;
    const ColumnView* col =
        key.text ? nullptr
                 : batch->ExtractFieldColumn(key.binding, key.field, key.proj);
    if (col != nullptr) {
      for (size_t i = 0; i < good; ++i) {
        const size_t phys = batch->active_index(i);
        if (!col->loaded_at(phys)) {
          good = i;
          break;
        }
        const double d = col->is_real ? col->reals[phys]
                                      : static_cast<double>(col->ints[phys]);
        dst[i * nw] = NumberWord(d) ^ key.flip;
      }
      continue;
    }
    // No typed column (a string field, or a kind mix): read each row's
    // stored value in place and encode it.
    for (size_t i = 0; i < good; ++i) {
      const Slot& s = batch->active_ref(i).slot(key.binding);
      if (!s.loaded()) {
        good = i;
        break;
      }
      dst[i * nw] = ValueWord(s.obj->value(key.field), key.text) ^ key.flip;
    }
  }
  return {out, good};
}

Status SortKeyCodec::KeyError(TupleRef row) const {
  for (const Key& key : keys_) {
    OODB_RETURN_IF_ERROR(EvalExpr(*key.attr, row, *ctx_).status());
  }
  return Status::Internal("sort key reported unloaded but reads cleanly");
}

void SortKeyCodec::SortRows(const uint64_t* keys, const Slot* rows,
                            size_t width, size_t lo, uint32_t* first,
                            uint32_t* last) const {
  const size_t nw = keys_.size();
  auto less = [&](uint32_t a, uint32_t b) {
    int c = Compare(keys + a * nw, rows + a * width, keys + b * nw,
                    rows + b * width, lo, nw);
    return c != 0 ? c < 0 : a < b;
  };
  const size_t n = static_cast<size_t>(last - first);
  // Below this a radix pass's fixed costs (histograms) outweigh its saving.
  constexpr size_t kRadixMinRows = 256;
  if (n < kRadixMinRows) {
    std::sort(first, last, less);
    return;
  }
  // LSD radix: least significant key first, each word by its 8 byte digits.
  std::vector<std::pair<uint64_t, uint32_t>> cur(n), tmp(n);
  for (size_t k = nw; k-- > lo;) {
    uint32_t hist[8][256] = {};
    for (size_t i = 0; i < n; ++i) {
      const uint64_t w = keys[first[i] * nw + k];
      cur[i] = {w, first[i]};
      for (int d = 0; d < 8; ++d) ++hist[d][(w >> (8 * d)) & 0xff];
    }
    for (int d = 0; d < 8; ++d) {
      const uint64_t sample = (cur[0].first >> (8 * d)) & 0xff;
      if (hist[d][sample] == n) continue;  // one value: the pass is a no-op
      uint32_t sum = 0;
      for (uint32_t& c : hist[d]) {
        uint32_t count = c;
        c = sum;
        sum += count;
      }
      for (const auto& e : cur) tmp[hist[d][(e.first >> (8 * d)) & 0xff]++] = e;
      cur.swap(tmp);
    }
    for (size_t i = 0; i < n; ++i) first[i] = cur[i].second;
  }
  // Word order equals key order except among rows whose words tie through
  // a key that needs the fallback: rows equal on the words up to and
  // including that key are contiguous now, and each such run is re-sorted.
  for (size_t i = 0; i < n;) {
    const uint64_t* wi = keys + first[i] * nw;
    const size_t f = FallbackKey(wi, lo);
    size_t j = i + 1;
    if (f < nw) {
      while (j < n &&
             std::equal(wi + lo, wi + f + 1, keys + first[j] * nw + lo)) {
        ++j;
      }
      if (j - i > 1) std::sort(first + i, first + j, less);
    }
    i = j;
  }
}

size_t SortKeyCodec::FallbackKey(const uint64_t* w, size_t lo) const {
  for (size_t k = lo; k < keys_.size(); ++k) {
    if (keys_[k].text || (w[k] ^ keys_[k].flip) == kStringWord) return k;
  }
  return keys_.size();
}

int SortKeyCodec::FallbackCompare(const Key& key, const Slot* ra,
                                  const Slot* rb) const {
  int c = TotalCompare(ra[key.binding].obj->value(key.field),
                       rb[key.binding].obj->value(key.field));
  return key.desc ? -c : c;
}

}  // namespace oodb
