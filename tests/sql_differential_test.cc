// Differential test of the SQL engine: random SELECTs (projection,
// conjunctive WHERE, ORDER BY, LIMIT, aggregates) over random data are
// checked against a straightforward in-memory reference evaluator.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_paths.h"

#include "common/random.h"
#include "sql/engine.h"

namespace segdiff {
namespace sql {
namespace {

struct RefDb {
  std::vector<std::vector<double>> rows;  // 3 double columns: a, b, c
};

struct RandomQuery {
  std::string text;
  std::vector<WhereClause> where;
  int order_column = -1;  // -1: none
  bool ascending = true;
  int64_t limit = -1;     // -1: none
  Aggregate aggregate = Aggregate::kNone;
  int aggregate_column = 0;
};

bool Passes(const std::vector<double>& row,
            const std::vector<WhereClause>& where) {
  static const char* names[] = {"a", "b", "c"};
  for (const WhereClause& clause : where) {
    int column = 0;
    for (int c = 0; c < 3; ++c) {
      if (clause.column == names[c]) column = c;
    }
    const double v = row[static_cast<size_t>(column)];
    bool ok = true;
    switch (clause.op) {
      case CmpOp::kLt: ok = v < clause.value; break;
      case CmpOp::kLe: ok = v <= clause.value; break;
      case CmpOp::kGt: ok = v > clause.value; break;
      case CmpOp::kGe: ok = v >= clause.value; break;
      case CmpOp::kEq: ok = v == clause.value; break;
    }
    if (!ok) return false;
  }
  return true;
}

RandomQuery MakeQuery(Rng* rng) {
  static const char* names[] = {"a", "b", "c"};
  static const char* ops[] = {"<", "<=", ">", ">=",};
  static const CmpOp op_enums[] = {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                                   CmpOp::kGe};
  RandomQuery query;
  const int agg_pick = static_cast<int>(rng->UniformInt(0, 5));
  std::string select_list;
  if (agg_pick == 1) {
    query.aggregate = Aggregate::kCount;
    select_list = "COUNT(*)";
  } else if (agg_pick == 2) {
    query.aggregate = Aggregate::kSum;
    query.aggregate_column = static_cast<int>(rng->UniformInt(0, 2));
    select_list = std::string("SUM(") + names[query.aggregate_column] + ")";
  } else if (agg_pick == 3) {
    query.aggregate = Aggregate::kAvg;
    query.aggregate_column = static_cast<int>(rng->UniformInt(0, 2));
    select_list = std::string("AVG(") + names[query.aggregate_column] + ")";
  } else {
    select_list = "a, b, c";
  }
  query.text = "SELECT " + select_list + " FROM t";
  const int conjuncts = static_cast<int>(rng->UniformInt(0, 3));
  for (int i = 0; i < conjuncts; ++i) {
    const int column = static_cast<int>(rng->UniformInt(0, 2));
    const int op = static_cast<int>(rng->UniformInt(0, 3));
    const double value = std::round(rng->Uniform(-50, 50));
    WhereClause clause;
    clause.column = names[column];
    clause.op = op_enums[op];
    clause.value = value;
    query.where.push_back(clause);
    query.text += i == 0 ? " WHERE " : " AND ";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s %s %g", names[column], ops[op],
                  value);
    query.text += buf;
  }
  if (query.aggregate == Aggregate::kNone && rng->Bernoulli(0.5)) {
    query.order_column = static_cast<int>(rng->UniformInt(0, 2));
    query.ascending = rng->Bernoulli(0.5);
    query.text += std::string(" ORDER BY ") + names[query.order_column] +
                  (query.ascending ? " ASC" : " DESC");
  }
  // LIMIT without ORDER BY returns an access-path-dependent prefix
  // (legal SQL, but not comparable to a reference), so only combine
  // LIMIT with ORDER BY.
  if (query.order_column >= 0 && rng->Bernoulli(0.4)) {
    query.limit = rng->UniformInt(0, 30);
    query.text += " LIMIT " + std::to_string(query.limit);
  }
  return query;
}

TEST(SqlDifferentialTest, RandomQueriesMatchReference) {
  const std::string path =
      UniqueTestPath("segdiff_sql_differential");
  RemoveTestStore(path);
  auto db = Database::Open(path, DatabaseOptions{});
  ASSERT_TRUE(db.ok());
  Engine engine(db->get());
  ASSERT_TRUE(
      engine.Execute("CREATE TABLE t (a DOUBLE, b DOUBLE, c DOUBLE)").ok());
  ASSERT_TRUE(engine.Execute("CREATE INDEX ia ON t (a, b)").ok());
  ASSERT_TRUE(engine.Execute("CREATE INDEX ib ON t (b)").ok());

  Rng rng(777);
  RefDb reference;
  for (int i = 0; i < 800; ++i) {
    std::vector<double> row = {std::round(rng.Uniform(-60, 60)),
                               std::round(rng.Uniform(-60, 60)),
                               std::round(rng.Uniform(-60, 60))};
    char sql[128];
    std::snprintf(sql, sizeof(sql), "INSERT INTO t VALUES (%g, %g, %g)",
                  row[0], row[1], row[2]);
    ASSERT_TRUE(engine.Execute(sql).ok());
    reference.rows.push_back(std::move(row));
  }

  for (int trial = 0; trial < 300; ++trial) {
    const RandomQuery query = MakeQuery(&rng);
    auto result = engine.Execute(query.text);
    ASSERT_TRUE(result.ok()) << query.text << ": "
                             << result.status().ToString();

    // Reference evaluation.
    std::vector<std::vector<double>> expected;
    for (const auto& row : reference.rows) {
      if (Passes(row, query.where)) {
        expected.push_back(row);
      }
    }

    if (query.aggregate == Aggregate::kCount) {
      ASSERT_EQ(result->rows.size(), 1u) << query.text;
      EXPECT_EQ(result->rows[0][0].i,
                static_cast<int64_t>(expected.size()))
          << query.text;
      continue;
    }
    if (query.aggregate == Aggregate::kSum ||
        query.aggregate == Aggregate::kAvg) {
      double sum = 0;
      for (const auto& row : expected) {
        sum += row[static_cast<size_t>(query.aggregate_column)];
      }
      if (query.aggregate == Aggregate::kAvg && expected.empty()) {
        EXPECT_TRUE(result->rows.empty()) << query.text;
      } else {
        ASSERT_EQ(result->rows.size(), 1u) << query.text;
        const double want = query.aggregate == Aggregate::kSum
                                ? sum
                                : sum / static_cast<double>(expected.size());
        EXPECT_NEAR(result->rows[0][0].d, want, 1e-6) << query.text;
      }
      continue;
    }

    // Row queries: apply ORDER BY/LIMIT to the reference.
    if (query.order_column >= 0) {
      const size_t column = static_cast<size_t>(query.order_column);
      const bool ascending = query.ascending;
      std::stable_sort(expected.begin(), expected.end(),
                       [column, ascending](const auto& x, const auto& y) {
                         return ascending ? x[column] < y[column]
                                          : x[column] > y[column];
                       });
    }
    if (query.limit >= 0 &&
        expected.size() > static_cast<size_t>(query.limit)) {
      expected.resize(static_cast<size_t>(query.limit));
    }
    ASSERT_EQ(result->rows.size(), expected.size()) << query.text;
    auto materialize = [](const std::vector<Row>& rows) {
      std::vector<std::vector<double>> out;
      for (const Row& row : rows) {
        out.push_back({row[0].d, row[1].d, row[2].d});
      }
      return out;
    };
    std::vector<std::vector<double>> actual = materialize(result->rows);
    if (query.order_column >= 0) {
      // Ties may permute (and differ at a LIMIT cut), so compare the
      // ordering key column values positionally.
      const size_t column = static_cast<size_t>(query.order_column);
      for (size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(actual[i][column], expected[i][column])
            << query.text << " row " << i;
      }
    } else {
      // Row order depends on the chosen access path: compare multisets.
      std::sort(actual.begin(), actual.end());
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(actual, expected) << query.text;
    }
  }
  RemoveTestStore(path);
}

}  // namespace
}  // namespace sql
}  // namespace segdiff
