#include "src/workloads/oo7.h"

#include <cassert>

#include "src/common/rng.h"

namespace oodb {

namespace {

void Check(const Status& s) {
  assert(s.ok());
  (void)s;
}

FieldDef IntField(std::string name, int64_t distinct, int64_t min_value = 0,
                  int64_t max_value = 0) {
  FieldDef f;
  f.name = std::move(name);
  f.kind = FieldKind::kInt;
  f.distinct_values = distinct;
  f.min_value = min_value;
  f.max_value = max_value;
  return f;
}

FieldDef StrField(std::string name, int32_t size, int64_t distinct) {
  FieldDef f;
  f.name = std::move(name);
  f.kind = FieldKind::kString;
  f.avg_size = size;
  f.distinct_values = distinct;
  return f;
}

FieldDef RefField(std::string name, TypeId target) {
  FieldDef f;
  f.name = std::move(name);
  f.kind = FieldKind::kRef;
  f.target_type = target;
  return f;
}

FieldDef RefSetField(std::string name, TypeId target, double avg) {
  FieldDef f;
  f.name = std::move(name);
  f.kind = FieldKind::kRefSet;
  f.target_type = target;
  f.avg_set_card = avg;
  f.avg_size = static_cast<int32_t>(8 * avg);
  return f;
}

}  // namespace

std::unique_ptr<Oo7Db> MakeOo7Catalog(const Oo7Options& o) {
  auto db = std::make_unique<Oo7Db>();
  Schema& s = db->catalog.schema();

  db->atomic_part = s.AddType("AtomicPart", 60);
  db->composite_part = s.AddType("CompositePart", 200);
  db->document = s.AddType("Document", 2000);
  db->base_assembly = s.AddType("BaseAssembly", 100);
  db->complex_assembly = s.AddType("ComplexAssembly", 100);
  db->module = s.AddType("Module", 80);

  int64_t num_atomic =
      static_cast<int64_t>(o.num_composite_parts) * o.atomic_per_composite;
  TypeDef& atomic = s.mutable_type(db->atomic_part);
  db->atomic_id = atomic.AddField(IntField("id", num_atomic, 0, num_atomic - 1));
  db->atomic_x = atomic.AddField(IntField("x", 1000, 0, 999));
  db->atomic_y = atomic.AddField(IntField("y", 1000, 0, 999));
  db->atomic_build_date = atomic.AddField(
      IntField("buildDate", o.num_build_dates, 0, o.num_build_dates - 1));
  db->atomic_part_of = atomic.AddField(RefField("partOf", db->composite_part));

  TypeDef& comp = s.mutable_type(db->composite_part);
  db->comp_id = comp.AddField(
      IntField("id", o.num_composite_parts, 0, o.num_composite_parts - 1));
  db->comp_build_date = comp.AddField(
      IntField("buildDate", o.num_build_dates, 0, o.num_build_dates - 1));
  db->comp_root_part = comp.AddField(RefField("rootPart", db->atomic_part));
  db->comp_parts = comp.AddField(
      RefSetField("parts", db->atomic_part, o.atomic_per_composite));
  db->comp_doc = comp.AddField(RefField("documentation", db->document));

  TypeDef& doc = s.mutable_type(db->document);
  db->doc_title = doc.AddField(StrField("title", 32, o.num_doc_titles));
  db->doc_text = doc.AddField(StrField("text", 1900, 0));

  TypeDef& base = s.mutable_type(db->base_assembly);
  int64_t num_base = static_cast<int64_t>(o.num_modules) *
                     o.complex_per_module * o.base_per_complex;
  db->base_id = base.AddField(IntField("id", num_base, 0, num_base - 1));
  db->base_build_date = base.AddField(
      IntField("buildDate", o.num_build_dates, 0, o.num_build_dates - 1));
  db->base_components = base.AddField(
      RefSetField("components", db->composite_part, o.components_per_base));

  TypeDef& complex_asm = s.mutable_type(db->complex_assembly);
  int64_t num_complex =
      static_cast<int64_t>(o.num_modules) * o.complex_per_module;
  db->complex_id =
      complex_asm.AddField(IntField("id", num_complex, 0, num_complex - 1));
  db->complex_build_date = complex_asm.AddField(
      IntField("buildDate", o.num_build_dates, 0, o.num_build_dates - 1));
  db->complex_subassemblies = complex_asm.AddField(
      RefSetField("subAssemblies", db->base_assembly, o.base_per_complex));

  TypeDef& module = s.mutable_type(db->module);
  db->module_id =
      module.AddField(IntField("id", o.num_modules, 0, o.num_modules - 1));
  db->module_man = module.AddField(StrField("man", 16, 10));
  db->module_design_root =
      module.AddField(RefField("designRoot", db->complex_assembly));

  // Collections: extents everywhere; named sets for the query entry points.
  Check(db->catalog.AddExtent(db->atomic_part, num_atomic));
  Check(db->catalog.AddExtent(db->composite_part, o.num_composite_parts));
  Check(db->catalog.AddExtent(db->document, o.num_composite_parts));
  Check(db->catalog.AddExtent(db->base_assembly, num_base));
  Check(db->catalog.AddExtent(db->complex_assembly, num_complex));
  Check(db->catalog.AddExtent(db->module, o.num_modules));
  Check(db->catalog.AddSet("Modules", db->module, o.num_modules));
  Check(db->catalog.AddSet("BaseAssemblies", db->base_assembly, num_base));
  Check(db->catalog.AddSet("CompositeParts", db->composite_part,
                           o.num_composite_parts));
  Check(db->catalog.AddSet("AtomicParts", db->atomic_part, num_atomic));

  {
    IndexInfo idx;
    idx.name = kOo7IdxAtomicId;
    idx.collection = CollectionId::Set("AtomicParts", db->atomic_part);
    idx.path = {db->atomic_id};
    idx.distinct_keys = num_atomic;
    Check(db->catalog.AddIndex(idx));
  }
  {
    // Path index over composite -> documentation -> title.
    IndexInfo idx;
    idx.name = kOo7IdxCompositeDocTitle;
    idx.collection = CollectionId::Set("CompositeParts", db->composite_part);
    idx.path = {db->comp_doc, db->doc_title};
    idx.distinct_keys = o.num_doc_titles;
    Check(db->catalog.AddIndex(idx));
  }
  {
    IndexInfo idx;
    idx.name = kOo7IdxBaseBuildDate;
    idx.collection = CollectionId::Set("BaseAssemblies", db->base_assembly);
    idx.path = {db->base_build_date};
    idx.distinct_keys = o.num_build_dates;
    Check(db->catalog.AddIndex(idx));
  }
  return db;
}

Status PopulateOo7(Oo7Db* db, ObjectStore* store, const Oo7Options& o) {
  Rng rng(o.seed);
  store->Reserve(
      store->num_objects() +
      static_cast<int64_t>(o.num_composite_parts) *
          (2 + o.atomic_per_composite) +
      static_cast<int64_t>(o.num_modules) *
          (1 + static_cast<int64_t>(o.complex_per_module) *
                   (1 + o.base_per_complex)));

  // Documents + composite parts + their atomic parts.
  for (int c = 0; c < o.num_composite_parts; ++c) {
    Oid doc = store->Create(db->document);
    store->SetValue(doc, db->doc_title,
                    Value::Str("Doc" + std::to_string(c % o.num_doc_titles)));
    store->SetValue(doc, db->doc_text, Value::Str("text..."));
    db->documents.push_back(doc);

    Oid comp = store->Create(db->composite_part);
    store->SetValue(comp, db->comp_id, Value::Int(c));
    store->SetValue(
        comp, db->comp_build_date,
        Value::Int(static_cast<int64_t>(rng.Uniform(o.num_build_dates))));
    store->SetRef(comp, db->comp_doc, doc);
    OODB_RETURN_IF_ERROR(store->AddToSet("CompositeParts", comp));
    db->composite_parts.push_back(comp);

    Oid root = kInvalidOid;
    for (int a = 0; a < o.atomic_per_composite; ++a) {
      Oid atomic = store->Create(db->atomic_part);
      int64_t id = static_cast<int64_t>(c) * o.atomic_per_composite + a;
      store->SetValue(atomic, db->atomic_id, Value::Int(id));
      store->SetValue(atomic, db->atomic_x,
                      Value::Int(static_cast<int64_t>(rng.Uniform(1000))));
      store->SetValue(atomic, db->atomic_y,
                      Value::Int(static_cast<int64_t>(rng.Uniform(1000))));
      store->SetValue(
          atomic, db->atomic_build_date,
          Value::Int(static_cast<int64_t>(rng.Uniform(o.num_build_dates))));
      store->SetRef(atomic, db->atomic_part_of, comp);
      store->AddToRefSet(comp, db->comp_parts, atomic);
      OODB_RETURN_IF_ERROR(store->AddToSet("AtomicParts", atomic));
      db->atomic_parts.push_back(atomic);
      if (a == 0) root = atomic;
    }
    store->SetRef(comp, db->comp_root_part, root);
  }

  // Assembly hierarchy.
  for (int m = 0; m < o.num_modules; ++m) {
    Oid module = store->Create(db->module);
    store->SetValue(module, db->module_id, Value::Int(m));
    store->SetValue(module, db->module_man,
                    Value::Str("Man" + std::to_string(m % 10)));
    OODB_RETURN_IF_ERROR(store->AddToSet("Modules", module));
    db->modules.push_back(module);

    for (int c = 0; c < o.complex_per_module; ++c) {
      Oid complex_asm = store->Create(db->complex_assembly);
      store->SetValue(complex_asm, db->complex_id,
                      Value::Int(static_cast<int64_t>(m) * o.complex_per_module + c));
      store->SetValue(
          complex_asm, db->complex_build_date,
          Value::Int(static_cast<int64_t>(rng.Uniform(o.num_build_dates))));
      db->complex_assemblies.push_back(complex_asm);
      if (c == 0) store->SetRef(module, db->module_design_root, complex_asm);

      for (int b = 0; b < o.base_per_complex; ++b) {
        Oid base = store->Create(db->base_assembly);
        int64_t id = (static_cast<int64_t>(m) * o.complex_per_module + c) *
                         o.base_per_complex + b;
        store->SetValue(base, db->base_id, Value::Int(id));
        store->SetValue(
            base, db->base_build_date,
            Value::Int(static_cast<int64_t>(rng.Uniform(o.num_build_dates))));
        for (int k = 0; k < o.components_per_base; ++k) {
          store->AddToRefSet(
              base, db->base_components,
              db->composite_parts[rng.Uniform(db->composite_parts.size())]);
        }
        store->AddToRefSet(complex_asm, db->complex_subassemblies, base);
        OODB_RETURN_IF_ERROR(store->AddToSet("BaseAssemblies", base));
        db->base_assemblies.push_back(base);
      }
    }
  }

  return store->BuildIndexes();
}

Result<Oo7Instance> MakeOo7(Oo7Options options) {
  Oo7Instance out;
  out.db = MakeOo7Catalog(options);
  out.store = std::make_unique<ObjectStore>(&out.db->catalog);
  OODB_RETURN_IF_ERROR(PopulateOo7(out.db.get(), out.store.get(), options));
  return out;
}

std::string Oo7QueryExactMatch(int64_t id) {
  return "SELECT a.x, a.y FROM AtomicPart a IN AtomicParts WHERE a.id == " +
         std::to_string(id) + ";";
}

std::string Oo7QueryByDocTitle(const std::string& title) {
  return "SELECT p.id FROM CompositePart p IN CompositeParts "
         "WHERE p.documentation.title == \"" + title + "\";";
}

}  // namespace oodb
