#include "sensjoin/query/query.h"

#include <gtest/gtest.h>

#include "sensjoin/data/schema.h"

namespace sensjoin::query {
namespace {

data::Schema MakeSchema() {
  return data::Schema(
      {{"x", 2}, {"y", 2}, {"temp", 2}, {"hum", 2}, {"pres", 2}});
}

TEST(AnalyzeTest, SplitsSelectionsFromJoinPredicates) {
  auto q = AnalyzedQuery::FromString(
      "SELECT A.hum, B.hum FROM sensors A, sensors B "
      "WHERE |A.temp - B.temp| < 0.3 AND A.pres > 1000 AND B.hum <= 40 ONCE",
      MakeSchema());
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->num_tables(), 2);
  ASSERT_EQ(q->join_predicates().size(), 1u);
  EXPECT_EQ(q->join_predicates()[0]->ToString(),
            "(abs((A.temp - B.temp)) < 0.3)");
  ASSERT_NE(q->table(0).selection, nullptr);
  EXPECT_EQ(q->table(0).selection->ToString(), "(A.pres > 1000)");
  ASSERT_NE(q->table(1).selection, nullptr);
  EXPECT_EQ(q->table(1).selection->ToString(), "(B.hum <= 40)");
}

TEST(AnalyzeTest, JoinAttributesAreCollectedPerTable) {
  auto q = AnalyzedQuery::FromString(
      "SELECT A.hum, B.hum FROM sensors A, sensors B "
      "WHERE |A.temp - B.temp| < 0.3 "
      "AND distance(A.x, A.y, B.x, B.y) > 100 ONCE",
      MakeSchema());
  ASSERT_TRUE(q.ok()) << q.status();
  // Join attributes: x(0), y(1), temp(2) for both sides.
  EXPECT_EQ(q->table(0).join_attr_indices, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q->table(1).join_attr_indices, (std::vector<int>{0, 1, 2}));
  // Shipped attributes add hum(3).
  EXPECT_EQ(q->table(0).queried_attr_indices, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q->JoinAttrTupleBytes(0), 6);
  EXPECT_EQ(q->QueriedTupleBytes(0), 8);
}

TEST(AnalyzeTest, SelectionOnlyAttributesStayLocal) {
  auto q = AnalyzedQuery::FromString(
      "SELECT A.hum, B.hum FROM sensors A, sensors B "
      "WHERE A.temp = B.temp AND A.pres > 1000 ONCE",
      MakeSchema());
  ASSERT_TRUE(q.ok()) << q.status();
  // pres(4) is used only in a pushed-down selection: not shipped.
  EXPECT_EQ(q->table(0).queried_attr_indices, (std::vector<int>{2, 3}));
}

TEST(AnalyzeTest, SelfJoinTablesAndUnions) {
  auto q = AnalyzedQuery::FromString(
      "SELECT A.hum, B.pres FROM sensors A, sensors B "
      "WHERE A.temp = B.temp ONCE",
      MakeSchema());
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->RelationNames(), (std::vector<std::string>{"sensors"}));
  EXPECT_EQ(q->TablesOfRelation("sensors"), (std::vector<int>{0, 1}));
  // hum from A, pres from B, temp join attr from both.
  EXPECT_EQ(q->UnionQueriedAttrIndices("sensors"),
            (std::vector<int>{2, 3, 4}));
}

TEST(AnalyzeTest, HeterogeneousJoinNamesBothRelations) {
  auto q = AnalyzedQuery::FromString(
      "SELECT A.hum, B.hum FROM hot A, cold B WHERE A.temp = B.temp ONCE",
      MakeSchema());
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->RelationNames(),
            (std::vector<std::string>{"hot", "cold"}));
}

TEST(AnalyzeTest, UnqualifiedRefsResolveWithSingleTable) {
  auto q = AnalyzedQuery::FromString("SELECT temp FROM sensors ONCE",
                                     MakeSchema());
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->select()[0].expr->attr_index, 2);
  EXPECT_EQ(q->select()[0].expr->table_index, 0);
}

TEST(AnalyzeTest, ThreeWayJoin) {
  auto q = AnalyzedQuery::FromString(
      "SELECT A.hum, B.hum, C.hum FROM s A, s B, s C "
      "WHERE A.temp = B.temp AND B.temp = C.temp ONCE",
      MakeSchema());
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->num_tables(), 3);
  EXPECT_EQ(q->join_predicates().size(), 2u);
}

TEST(AnalyzeTest, Errors) {
  const data::Schema schema = MakeSchema();
  // Unknown attribute.
  EXPECT_FALSE(
      AnalyzedQuery::FromString("SELECT foo FROM s ONCE", schema).ok());
  // Unknown alias.
  EXPECT_FALSE(AnalyzedQuery::FromString(
                   "SELECT Z.temp FROM s A ONCE", schema).ok());
  // Duplicate alias.
  EXPECT_FALSE(AnalyzedQuery::FromString(
                   "SELECT A.temp FROM s A, t A WHERE A.x = A.y ONCE", schema)
                   .ok());
  // Ambiguous unqualified ref.
  EXPECT_FALSE(AnalyzedQuery::FromString(
                   "SELECT temp FROM s A, s B WHERE A.x = B.x ONCE", schema)
                   .ok());
  // Cross product.
  EXPECT_FALSE(AnalyzedQuery::FromString(
                   "SELECT A.temp FROM s A, s B ONCE", schema).ok());
  // Mixed aggregate and plain items.
  EXPECT_FALSE(AnalyzedQuery::FromString(
                   "SELECT MAX(A.temp), A.hum FROM s A, s B "
                   "WHERE A.temp = B.temp ONCE",
                   schema)
                   .ok());
  // Numeric expression where predicate expected.
  EXPECT_FALSE(AnalyzedQuery::FromString(
                   "SELECT A.hum FROM s A, s B WHERE A.temp + B.temp ONCE",
                   schema)
                   .ok());
  // Predicate in SELECT.
  EXPECT_FALSE(AnalyzedQuery::FromString(
                   "SELECT A.temp > 5 FROM s A, s B WHERE A.x = B.x ONCE",
                   schema)
                   .ok());
  // Wrong function arity.
  EXPECT_FALSE(AnalyzedQuery::FromString(
                   "SELECT abs(A.x, A.y) FROM s A, s B WHERE A.x = B.x ONCE",
                   schema)
                   .ok());
  // Unknown function.
  EXPECT_FALSE(AnalyzedQuery::FromString(
                   "SELECT frob(A.x) FROM s A, s B WHERE A.x = B.x ONCE",
                   schema)
                   .ok());
}

}  // namespace
}  // namespace sensjoin::query
