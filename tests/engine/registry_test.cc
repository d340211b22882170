#include <gtest/gtest.h>

#include "engine/catalog/aggregate_registry.h"
#include "engine/catalog/cast_registry.h"
#include "engine/catalog/catalog.h"
#include "engine/catalog/routine_registry.h"

namespace tip::engine {
namespace {

Routine Simple(std::string name, std::vector<TypeId> params, TypeId result) {
  Routine r;
  r.name = std::move(name);
  r.params = std::move(params);
  r.result = result;
  r.fn = [](DatumRefs, EvalContext&) -> Result<Datum> {
    return Datum::Null();
  };
  return r;
}

CastFn Identity() {
  return [](const Datum& v, EvalContext&) -> Result<Datum> { return v; };
}

TEST(RoutineRegistryTest, ExactMatchBeatsCastMatch) {
  RoutineRegistry routines;
  CastRegistry casts;
  ASSERT_TRUE(casts.Register(TypeId::kInt, TypeId::kDouble, true,
                             Identity()).ok());
  ASSERT_TRUE(routines.Register(Simple("f", {TypeId::kInt},
                                       TypeId::kInt)).ok());
  ASSERT_TRUE(routines.Register(Simple("f", {TypeId::kDouble},
                                       TypeId::kDouble)).ok());
  Result<ResolvedRoutine> r = routines.Resolve("f", {TypeId::kInt}, casts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->routine->result, TypeId::kInt);
  EXPECT_EQ(r->arg_casts[0], nullptr);
}

TEST(RoutineRegistryTest, FewestCastsWins) {
  RoutineRegistry routines;
  CastRegistry casts;
  const TypeId a = static_cast<TypeId>(kFirstExtensionTypeId);
  const TypeId b = static_cast<TypeId>(kFirstExtensionTypeId + 1);
  ASSERT_TRUE(casts.Register(TypeId::kInt, a, true, Identity()).ok());
  ASSERT_TRUE(casts.Register(TypeId::kInt, b, true, Identity()).ok());
  ASSERT_TRUE(casts.Register(a, b, true, Identity()).ok());
  // g(a, b) needs 2 casts from (int, int); g(a, a) would need 2 as well
  // -> ambiguous. g(a, int) needs only 1 -> wins.
  ASSERT_TRUE(routines.Register(Simple("g", {a, b}, TypeId::kInt)).ok());
  ASSERT_TRUE(routines.Register(Simple("g", {a, TypeId::kInt},
                                       TypeId::kBool)).ok());
  Result<ResolvedRoutine> r =
      routines.Resolve("g", {TypeId::kInt, TypeId::kInt}, casts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->routine->result, TypeId::kBool);
  EXPECT_NE(r->arg_casts[0], nullptr);
  EXPECT_EQ(r->arg_casts[1], nullptr);
}

TEST(RoutineRegistryTest, TieIsAmbiguous) {
  RoutineRegistry routines;
  CastRegistry casts;
  const TypeId a = static_cast<TypeId>(kFirstExtensionTypeId);
  const TypeId b = static_cast<TypeId>(kFirstExtensionTypeId + 1);
  ASSERT_TRUE(casts.Register(TypeId::kInt, a, true, Identity()).ok());
  ASSERT_TRUE(casts.Register(TypeId::kInt, b, true, Identity()).ok());
  ASSERT_TRUE(routines.Register(Simple("h", {a}, TypeId::kInt)).ok());
  ASSERT_TRUE(routines.Register(Simple("h", {b}, TypeId::kInt)).ok());
  Result<ResolvedRoutine> r = routines.Resolve("h", {TypeId::kInt}, casts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTypeError);
}

TEST(RoutineRegistryTest, NoMatchVsUnknownName) {
  RoutineRegistry routines;
  CastRegistry casts;
  ASSERT_TRUE(routines.Register(Simple("f", {TypeId::kInt},
                                       TypeId::kInt)).ok());
  EXPECT_EQ(routines.Resolve("f", {TypeId::kString}, casts).status().code(),
            StatusCode::kTypeError);
  EXPECT_EQ(routines.Resolve("nosuch", {}, casts).status().code(),
            StatusCode::kNotFound);
}

TEST(RoutineRegistryTest, NullLiteralMatchesAnyParam) {
  RoutineRegistry routines;
  CastRegistry casts;
  ASSERT_TRUE(routines.Register(Simple("f", {TypeId::kString},
                                       TypeId::kInt)).ok());
  EXPECT_TRUE(routines.Resolve("f", {TypeId::kNull}, casts).ok());
}

TEST(RoutineRegistryTest, DuplicateSignatureRejected) {
  RoutineRegistry routines;
  ASSERT_TRUE(routines.Register(Simple("f", {TypeId::kInt},
                                       TypeId::kInt)).ok());
  EXPECT_FALSE(routines.Register(Simple("F", {TypeId::kInt},
                                        TypeId::kBool)).ok());
  EXPECT_TRUE(routines.Exists("F"));
  EXPECT_EQ(routines.Overloads("f").size(), 1u);
}

TEST(CastRegistryTest, ImplicitFlagRespected) {
  CastRegistry casts;
  ASSERT_TRUE(casts.Register(TypeId::kDouble, TypeId::kInt, false,
                             Identity()).ok());
  EXPECT_NE(casts.Find(TypeId::kDouble, TypeId::kInt, false), nullptr);
  EXPECT_EQ(casts.Find(TypeId::kDouble, TypeId::kInt, true), nullptr);
  EXPECT_FALSE(casts.Register(TypeId::kDouble, TypeId::kInt, true,
                              Identity()).ok());
}

TEST(AggregateRegistryTest, OverloadAndWildcardResolution) {
  AggregateRegistry aggs;
  CastRegistry casts;
  AggregateDef sum_int;
  sum_int.name = "s";
  sum_int.param = TypeId::kInt;
  sum_int.result = TypeId::kInt;
  sum_int.make_state = [] { return std::unique_ptr<AggregateState>(); };
  ASSERT_TRUE(aggs.Register(std::move(sum_int)).ok());

  AggregateDef anymin;
  anymin.name = "m";
  anymin.any_param = true;
  anymin.result_same_as_param = true;
  anymin.make_state = [] { return std::unique_ptr<AggregateState>(); };
  ASSERT_TRUE(aggs.Register(std::move(anymin)).ok());

  Result<ResolvedAggregate> r = aggs.Resolve("m", TypeId::kString, casts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->result, TypeId::kString);
  EXPECT_EQ(aggs.Resolve("s", TypeId::kString, casts).status().code(),
            StatusCode::kTypeError);
  EXPECT_EQ(aggs.Resolve("nosuch", TypeId::kInt, casts).status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(aggs.Exists("M"));
}

TEST(CatalogTest, TableLifecycle) {
  Catalog catalog;
  Result<Table*> t = catalog.CreateTable(
      "T1", {{"A", TypeId::kInt}, {"b", TypeId::kString}});
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->name(), "t1");
  EXPECT_EQ((*t)->FindColumn("a"), 0);
  EXPECT_EQ((*t)->FindColumn("B"), 1);
  EXPECT_EQ((*t)->FindColumn("c"), -1);
  EXPECT_TRUE(catalog.GetTable("t1").ok());
  EXPECT_TRUE(catalog.GetTable("T1").ok());
  EXPECT_FALSE(catalog.CreateTable("t1", {{"x", TypeId::kInt}}).ok());
  EXPECT_FALSE(catalog.CreateTable("empty", {}).ok());
  EXPECT_EQ(catalog.TableNames().size(), 1u);
  ASSERT_TRUE(catalog.DropTable("t1").ok());
  EXPECT_FALSE(catalog.GetTable("t1").ok());
}

TEST(CatalogTest, IntervalIndexLifecycleAndStaleness) {
  Catalog catalog;
  Table* table = *catalog.CreateTable("t", {{"v", TypeId::kInt}});
  IntervalKeyFn key = [](const Datum& d) {
    const int64_t s = d.int_value();
    return IntervalKey::Absolute(s, s + 9);
  };
  ASSERT_TRUE(table->CreateIntervalIndex("i", 0, key).ok());
  EXPECT_FALSE(table->CreateIntervalIndex("i", 0, key).ok());
  EXPECT_TRUE(table->HasIntervalIndex(0));

  const RowId first = table->heap().Insert(Row{Datum::Int(0)});
  const RowId second = table->heap().Insert(Row{Datum::Int(100)});
  TxContext ctx;
  Result<IntervalIndexView> built = table->GetIntervalIndex(0, ctx);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built->Entries().size(), 2u);

  // Writes are caught up lazily: the new row is a delta entry, the
  // updated row's old entry is hidden behind its new one, and the
  // deleted row's entry is hidden.
  table->heap().Insert(Row{Datum::Int(200)});
  Result<IntervalIndexView> index = table->GetIntervalIndex(0, ctx);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->Entries().size(), 3u);
  ASSERT_TRUE(table->heap().Update(first, Row{Datum::Int(50)}).ok());
  ASSERT_TRUE(table->heap().Delete(second).ok());
  index = table->GetIntervalIndex(0, ctx);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->Entries().size(), 2u);
  std::vector<RowId> hits;
  index->FindOverlapping(IntervalKey::Absolute(0, 9), &hits);
  EXPECT_TRUE(hits.empty());  // `first` now covers [50, 59]
  index->FindOverlapping(IntervalKey::Absolute(55, 105), &hits);
  EXPECT_EQ(hits, std::vector<RowId>{first});

  // A view taken earlier still answers from its snapshot.
  EXPECT_EQ(built->Entries().size(), 2u);
  hits.clear();
  built->FindOverlapping(IntervalKey::Absolute(0, 9), &hits);
  EXPECT_EQ(hits, std::vector<RowId>{first});

  // One full build, which keyed no NOW-relative row.
  std::optional<IndexStatsSnapshot> stats = table->IntervalIndexStats(0);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->absolute_builds, 1u);
  EXPECT_EQ(stats->overlay_builds, 0u);

  ASSERT_TRUE(table->DropIndex("i").ok());
  EXPECT_FALSE(table->HasIntervalIndex(0));
  EXPECT_FALSE(table->GetIntervalIndex(0, ctx).ok());
}

}  // namespace
}  // namespace tip::engine
