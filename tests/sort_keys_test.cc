// The order contract of the encoded sort keys (src/exec/sort_keys.h): for
// every pair of values, comparing their encoded keys — words plus the string
// fallback — equals Value::Compare wherever that is a strict weak order
// (numbers without NaN; strings) and the documented total order everywhere
// else (numbers before strings, NaN after +inf, NaNs equal). Keys are read
// through a real codec, so both column layouts and both key sources (typed
// column gather, per-row value) are covered.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/exec/batch_pool.h"
#include "src/exec/sort_keys.h"
#include "src/storage/object_store.h"

namespace oodb {
namespace {

int Sign(int c) { return (c > 0) - (c < 0); }

bool IsNan(const Value& v) {
  return v.kind == Value::Kind::kDouble && std::isnan(v.d);
}

/// The documented total order, written out independently of the encoder.
int Documented(const Value& a, const Value& b) {
  const bool as = a.kind == Value::Kind::kString;
  const bool bs = b.kind == Value::Kind::kString;
  if (as != bs) return as ? 1 : -1;
  if (as) return Sign(a.s.compare(b.s));
  if (IsNan(a) || IsNan(b)) {
    return IsNan(a) == IsNan(b) ? 0 : (IsNan(a) ? 1 : -1);
  }
  auto num = [](const Value& v) {
    return v.kind == Value::Kind::kInt ? static_cast<double>(v.i) : v.d;
  };
  return num(a) < num(b) ? -1 : (num(a) > num(b) ? 1 : 0);
}

/// Pairs on which Value::Compare is a strict weak order.
bool InStrictWeakDomain(const Value& a, const Value& b) {
  const bool as = a.kind == Value::Kind::kString;
  const bool bs = b.kind == Value::Kind::kString;
  if (as || bs) return as && bs;
  return !IsNan(a) && !IsNan(b);
}

/// A seeded value set: ints on both sides of +-2^53, -0.0/+0.0, null,
/// doubles equal to ints, infinities and NaN, and strings with shared
/// 8-byte prefixes, embedded NULs and bytes >= 0x80.
std::vector<Value> ValueSet(uint64_t seed) {
  const int64_t p53 = int64_t{1} << 53;
  std::vector<Value> out = {
      Value::Null(),
      Value::Int(0),
      Value::Int(1),
      Value::Int(-1),
      Value::Int(42),
      Value::Int(std::numeric_limits<int64_t>::max()),
      Value::Int(std::numeric_limits<int64_t>::min()),
      Value::Double(0.0),
      Value::Double(-0.0),
      Value::Double(42.0),
      Value::Double(0.5),
      Value::Double(-0.5),
      Value::Double(static_cast<double>(p53)),
      Value::Double(1e300),
      Value::Double(-1e-300),
      Value::Double(std::numeric_limits<double>::denorm_min()),
      Value::Double(std::numeric_limits<double>::infinity()),
      Value::Double(-std::numeric_limits<double>::infinity()),
      Value::Double(std::numeric_limits<double>::quiet_NaN()),
      Value::Double(-std::numeric_limits<double>::quiet_NaN()),
      Value::Str(""),
      Value::Str(std::string("\0", 1)),
      Value::Str(std::string("a\0", 2)),
      Value::Str("a"),
      Value::Str("abcdefg"),
      Value::Str("abcdefgh"),
      Value::Str(std::string("abcdefgh\0", 9)),
      Value::Str("abcdefghi"),
      Value::Str("abcdefgz"),
      Value::Str("\x80"),
      Value::Str("\xff\x01"),
      Value::Str("abc\x80"),
      Value::Str("ABC"),
  };
  for (int64_t d = -3; d <= 3; ++d) {
    out.push_back(Value::Int(p53 + d));
    out.push_back(Value::Int(-p53 + d));
  }
  Rng rng(seed);
  const char alphabet[] = {'a', 'b', '\0', '\x80', '\xff'};
  for (int i = 0; i < 40; ++i) {
    out.push_back(Value::Int(static_cast<int64_t>(rng.Uniform(201)) - 100));
    out.push_back(Value::Int((rng.Uniform(2) == 0 ? p53 : -p53) +
                             static_cast<int64_t>(rng.Uniform(9)) - 4));
    out.push_back(Value::Double(rng.NextDouble() * 200.0 - 100.0));
    // Doubles equal to ints.
    out.push_back(
        Value::Double(static_cast<double>(rng.Uniform(201)) - 100.0));
    std::string s = rng.Uniform(2) == 0 ? "prefix__" : "";
    const size_t len = rng.Uniform(6);
    for (size_t k = 0; k < len; ++k) s += alphabet[rng.Uniform(5)];
    out.push_back(Value::Str(s));
  }
  return out;
}

/// One object type per column shape: a number-declared field holding `vals`
/// (mixed kinds, so no typed column), a string-declared field holding them
/// too, and an int-only and a double-only column that gather through the
/// store's dense projection.
class SortKeyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    vals_ = ValueSet(0x5047);
    Schema& schema = catalog_.schema();
    type_ = schema.AddType("T", 64);
    auto add = [&](const char* name, FieldKind kind) {
      FieldDef f;
      f.name = name;
      f.kind = kind;
      return schema.mutable_type(type_).AddField(f);
    };
    num_ = add("num", FieldKind::kInt);
    text_ = add("text", FieldKind::kString);
    ints_ = add("ints", FieldKind::kInt);
    reals_ = add("reals", FieldKind::kDouble);
    store_ = std::make_unique<ObjectStore>(&catalog_);
    for (size_t i = 0; i < vals_.size(); ++i) {
      Oid o = store_->Create(type_);
      store_->SetValue(o, num_, vals_[i]);
      store_->SetValue(o, text_, vals_[i]);
      store_->SetValue(o, ints_, Value::Int(IntAt(i)));
      store_->SetValue(o, reals_, Value::Double(RealAt(i)));
      oids_.push_back(o);
    }
    ctx_.catalog = &catalog_;
    binding_ = ctx_.bindings.AddGet("t", type_);
  }

  /// Int-only and double-only columns derived from the value set.
  int64_t IntAt(size_t i) const {
    const Value& v = vals_[i];
    return v.kind == Value::Kind::kInt ? v.i : static_cast<int64_t>(i) - 30;
  }
  double RealAt(size_t i) const {
    const Value& v = vals_[i];
    return v.kind == Value::Kind::kDouble ? v.d : static_cast<double>(i) / 3;
  }

  /// A batch of every object (one binding, loaded), repeated `copies` times.
  TupleBatch Batch(size_t copies = 1) {
    TupleBatch batch(1, oids_.size() * copies);
    for (size_t c = 0; c < copies; ++c) {
      for (Oid o : oids_) {
        auto obj = store_->Peek(o);
        EXPECT_TRUE(obj.ok());
        batch.AppendRow().slot(binding_) = Slot{o, *obj};
      }
    }
    return batch;
  }

  /// Encodes field `f` of every row and checks each pair's encoded order
  /// against `expect(i, j)` (ascending sense; negated for desc).
  template <typename Expect>
  void CheckPairs(FieldId f, bool desc, Expect expect) {
    SCOPED_TRACE(std::string("field ") + std::to_string(f) +
                 (desc ? " desc" : " asc"));
    SortKeyCodec codec({SortKey{binding_, f, desc}}, store_.get(), &ctx_);
    TupleBatch batch = Batch();
    std::vector<uint64_t> keys(batch.size() * codec.words());
    ASSERT_EQ(codec.Encode(&batch, keys.data()).good, batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      for (size_t j = 0; j < batch.size(); ++j) {
        int got = codec.Compare(&keys[i], batch.ref(i).slots, &keys[j],
                                batch.ref(j).slots);
        int want = expect(i, j);
        ASSERT_EQ(got, desc ? -want : want)
            << "rows " << i << " (" << vals_[i].ToString() << ") and " << j
            << " (" << vals_[j].ToString() << ")";
      }
    }
  }

  Catalog catalog_;
  TypeId type_ = kInvalidType;
  FieldId num_ = kInvalidField, text_ = kInvalidField;
  FieldId ints_ = kInvalidField, reals_ = kInvalidField;
  std::unique_ptr<ObjectStore> store_;
  QueryContext ctx_;
  BindingId binding_ = kInvalidBinding;
  std::vector<Value> vals_;
  std::vector<Oid> oids_;
};

TEST_F(SortKeyTest, EncodedOrderIsValueCompareOrTheDocumentedOrder) {
  for (FieldId f : {num_, text_}) {
    for (bool desc : {false, true}) {
      CheckPairs(f, desc, [&](size_t i, size_t j) {
        const Value& a = vals_[i];
        const Value& b = vals_[j];
        int documented = Documented(a, b);
        EXPECT_EQ(TotalCompare(a, b), documented);
        if (InStrictWeakDomain(a, b)) {
          EXPECT_EQ(Sign(a.Compare(b)), documented)
              << a.ToString() << " vs " << b.ToString();
        }
        return documented;
      });
    }
  }
}

TEST_F(SortKeyTest, TypedColumnsEncodeLikeValueCompare) {
  // Homogeneous int and double columns gather through the store's dense
  // projection; the words alone must order them as Value::Compare does
  // (ints beyond 2^53 that round to one double tie, -0.0 equals 0.0).
  ASSERT_NE(store_->Projection(type_, ints_), nullptr);
  ASSERT_TRUE(store_->Projection(type_, ints_)->homogeneous);
  for (bool desc : {false, true}) {
    CheckPairs(ints_, desc, [&](size_t i, size_t j) {
      return Sign(Value::Int(IntAt(i)).Compare(Value::Int(IntAt(j))));
    });
    CheckPairs(reals_, desc, [&](size_t i, size_t j) {
      return Documented(Value::Double(RealAt(i)), Value::Double(RealAt(j)));
    });
  }
}

TEST_F(SortKeyTest, SortRowsIsTheStableSortOnEveryKeyShape) {
  // Enough rows for the radix path, with duplicates (ties keep input
  // order) and string prefixes that need the fallback re-sort.
  TupleBatch batch = Batch(/*copies=*/8);
  const size_t n = batch.size();
  ASSERT_GE(n, 256u);
  const std::vector<std::vector<SortKey>> shapes = {
      {{binding_, num_, false}},
      {{binding_, text_, true}},
      {{binding_, text_, false}, {binding_, ints_, true}},
      {{binding_, reals_, true}, {binding_, num_, false}},
      {{binding_, ints_, false}, {binding_, text_, true}},
  };
  for (const std::vector<SortKey>& keys : shapes) {
    SortKeyCodec codec(keys, store_.get(), &ctx_);
    std::vector<uint64_t> words(n * codec.words());
    ASSERT_EQ(codec.Encode(&batch, words.data()).good, n);
    for (size_t lo : {size_t{0}, keys.size() - 1}) {
      SCOPED_TRACE("keys " + std::to_string(keys.size()) + " from " +
                   std::to_string(lo));
      std::vector<uint32_t> got(n);
      std::iota(got.begin(), got.end(), 0);
      codec.SortRows(words.data(), batch.ref(0).slots, 1, lo, got.data(),
                     got.data() + n);
      std::vector<uint32_t> want(n);
      std::iota(want.begin(), want.end(), 0);
      std::stable_sort(want.begin(), want.end(), [&](uint32_t a, uint32_t b) {
        const ObjectData& oa = *batch.ref(a).slots[binding_].obj;
        const ObjectData& ob = *batch.ref(b).slots[binding_].obj;
        for (size_t k = lo; k < keys.size(); ++k) {
          int c = Documented(oa.value(keys[k].field), ob.value(keys[k].field));
          if (c != 0) return keys[k].desc ? c > 0 : c < 0;
        }
        return false;
      });
      EXPECT_EQ(got, want);
    }
  }
}

TEST_F(SortKeyTest, UnloadedComponentStopsEncodingAtItsRow) {
  SortKeyCodec codec({SortKey{binding_, ints_, false}}, store_.get(), &ctx_);
  TupleBatch batch = Batch();
  batch.row(5).slot(binding_).obj = nullptr;  // present, not loaded
  std::vector<uint64_t> keys(batch.size());
  EXPECT_EQ(codec.Encode(&batch, keys.data()).good, 5u);
  Status st = codec.KeyError(batch.ref(5));
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(st.message(),
            "attribute read on component not present in memory: t");
}

TEST_F(SortKeyTest, AttachedWordsServeOnlyTheirOwnKeys) {
  // Words attached under one order are served to a codec on exactly that
  // order — even wrong words, which shows they are not re-encoded — and
  // never to a codec on another key, direction or key count.
  const std::vector<SortKey> spec = {{binding_, ints_, false}};
  TupleBatch batch = Batch();
  const size_t n = batch.size();
  uint64_t* attached = batch.AttachSortWords(spec);
  std::fill(attached, attached + n, uint64_t{7});

  SortKeyCodec codec(spec, store_.get(), &ctx_);
  std::vector<uint64_t> out(n);
  SortKeyCodec::Encoded enc = codec.Encode(&batch, out.data());
  EXPECT_EQ(enc.words, batch.SortWords(spec));
  EXPECT_EQ(enc.good, n);
  EXPECT_EQ(enc.words[n - 1], 7u);

  const std::vector<std::vector<SortKey>> others = {
      {{binding_, ints_, true}},
      {{binding_, reals_, false}},
      {{binding_, ints_, false}, {binding_, reals_, false}},
      {},
  };
  for (const std::vector<SortKey>& keys : others) {
    SCOPED_TRACE("keys " + std::to_string(keys.size()));
    EXPECT_EQ(batch.SortWords(keys), nullptr);
    SortKeyCodec other(keys, store_.get(), &ctx_);
    TupleBatch fresh = Batch();
    std::vector<uint64_t> want(n * other.words()), got(n * other.words());
    ASSERT_EQ(other.Encode(&fresh, want.data()).good, n);
    enc = other.Encode(&batch, got.data());
    EXPECT_EQ(enc.words, got.data());
    EXPECT_EQ(enc.good, n);
    EXPECT_EQ(got, want);
  }

  // Attached words describe physical rows: a batch with a selection is
  // encoded, live rows only.
  batch.MutableSelection()[0] = 3;
  batch.SetSelection(1);
  enc = codec.Encode(&batch, out.data());
  EXPECT_EQ(enc.words, out.data());
  EXPECT_EQ(enc.good, 1u);
}

TEST_F(SortKeyTest, RowChangesDropAttachedWords) {
  const std::vector<SortKey> spec = {{binding_, ints_, false}};
  auto attached = [&] {
    TupleBatch b = Batch();
    b.AttachSortWords(spec);
    EXPECT_NE(b.SortWords(spec), nullptr);
    return b;
  };
  struct {
    const char* label;
    void (*change)(TupleBatch*);
  } changes[] = {
      {"CopyRow", [](TupleBatch* b) { b->CopyRow(0, 1); }},
      {"Truncate", [](TupleBatch* b) { b->Truncate(3); }},
      {"Compact",
       [](TupleBatch* b) {
         b->MutableSelection()[0] = 2;
         b->SetSelection(1);
         b->Compact();
       }},
      {"Clear", [](TupleBatch* b) { b->Clear(); }},
      {"row", [](TupleBatch* b) { b->row(0).slot(0) = Slot{}; }},
  };
  for (const auto& c : changes) {
    SCOPED_TRACE(c.label);
    TupleBatch b = attached();
    c.change(&b);
    EXPECT_EQ(b.SortWords(spec), nullptr);
  }

  // Appending rows drops them too: the new rows have no words.
  TupleBatch src = Batch();
  TupleBatch b(1, src.size() + 1);
  b.AppendRows(src, 0, 1);
  b.AttachSortWords(spec);
  b.AppendRows(src, 1, 2);
  EXPECT_EQ(b.SortWords(spec), nullptr);

  // A pooled arena comes back without them.
  TupleBatch pooled = attached();
  const int width = pooled.width();
  const size_t capacity = pooled.capacity();
  BatchPool::Instance().Return(std::move(pooled));
  TupleBatch taken = BatchPool::Instance().Take(width, capacity);
  EXPECT_EQ(taken.SortWords(spec), nullptr);

  // Compacting a batch without a selection (the Exchange's serialization
  // point) changes no row and keeps them.
  TupleBatch kept = attached();
  kept.Compact();
  EXPECT_NE(kept.SortWords(spec), nullptr);
}

}  // namespace
}  // namespace oodb
