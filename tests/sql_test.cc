// Tests for the SQL layer: lexer, parser, and engine semantics
// (including index-scan vs seq-scan equivalence through SQL).

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "test_paths.h"

#include "common/random.h"
#include "sql/engine.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace segdiff {
namespace sql {
namespace {

TEST(LexerTest, TokenKinds) {
  auto tokens = Tokenize("SELECT a, b2 FROM t WHERE a <= -3.5 AND b2 <> 1;");
  ASSERT_TRUE(tokens.ok()) << tokens.status().ToString();
  ASSERT_GE(tokens->size(), 10u);
  EXPECT_EQ((*tokens)[0].type, TokenType::kKeyword);
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_EQ((*tokens)[1].type, TokenType::kIdentifier);
  EXPECT_EQ((*tokens)[1].text, "a");
  EXPECT_EQ((*tokens)[2].text, ",");
  // Number with sign folds into one token.
  bool saw_number = false;
  for (const Token& token : *tokens) {
    if (token.type == TokenType::kNumber) {
      EXPECT_DOUBLE_EQ(token.number, -3.5);  // first number literal
      saw_number = true;
      break;
    }
  }
  EXPECT_TRUE(saw_number);
  EXPECT_EQ(tokens->back().type, TokenType::kEnd);
}

TEST(LexerTest, CaseInsensitiveKeywords) {
  auto tokens = Tokenize("select From wHeRe");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_EQ((*tokens)[1].text, "FROM");
  EXPECT_EQ((*tokens)[2].text, "WHERE");
}

TEST(LexerTest, Strings) {
  auto tokens = Tokenize("'hello world'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kString);
  EXPECT_EQ((*tokens)[0].text, "hello world");
  EXPECT_TRUE(Tokenize("'unterminated").status().IsInvalidArgument());
}

TEST(LexerTest, RejectsGarbage) {
  EXPECT_TRUE(Tokenize("SELECT @ FROM t").status().IsInvalidArgument());
  EXPECT_TRUE(Tokenize("a ! b").status().IsInvalidArgument());
}

TEST(ParserTest, CreateTable) {
  auto stmt = Parse("CREATE TABLE feat (dt DOUBLE, dv DOUBLE, tag BIGINT)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->kind, StatementKind::kCreateTable);
  EXPECT_EQ(stmt->create_table.table, "feat");
  ASSERT_EQ(stmt->create_table.columns.size(), 3u);
  EXPECT_EQ(stmt->create_table.columns[2].type, ColumnType::kInt64);
}

TEST(ParserTest, CreateIndex) {
  auto stmt = Parse("CREATE INDEX pt ON feat (dt, dv)");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->kind, StatementKind::kCreateIndex);
  EXPECT_EQ(stmt->create_index.index, "pt");
  EXPECT_EQ(stmt->create_index.table, "feat");
  EXPECT_EQ(stmt->create_index.columns,
            (std::vector<std::string>{"dt", "dv"}));
}

TEST(ParserTest, InsertMultipleRows) {
  auto stmt = Parse("INSERT INTO t VALUES (1, -2.5), (3, 4)");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->kind, StatementKind::kInsert);
  ASSERT_EQ(stmt->insert.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(stmt->insert.rows[0][1], -2.5);
}

TEST(ParserTest, SelectVariants) {
  auto star = Parse("SELECT * FROM t");
  ASSERT_TRUE(star.ok());
  EXPECT_TRUE(star->select.star);

  auto projected =
      Parse("SELECT a, b FROM t WHERE a <= 5 AND b > 2 ORDER BY a DESC "
            "LIMIT 10;");
  ASSERT_TRUE(projected.ok()) << projected.status().ToString();
  const SelectStmt& select = projected->select;
  EXPECT_EQ(select.columns, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(select.where.size(), 2u);
  EXPECT_EQ(select.where[0].op, CmpOp::kLe);
  EXPECT_EQ(select.where[1].op, CmpOp::kGt);
  ASSERT_TRUE(select.order_by.has_value());
  EXPECT_FALSE(select.order_by->ascending);
  ASSERT_TRUE(select.limit.has_value());
  EXPECT_EQ(*select.limit, 10u);

  auto count = Parse("SELECT COUNT(*) FROM t WHERE x = 3");
  ASSERT_TRUE(count.ok());
  EXPECT_TRUE(count->select.count);
}

TEST(ParserTest, Errors) {
  EXPECT_TRUE(Parse("").status().IsInvalidArgument());
  EXPECT_TRUE(Parse("SELECT FROM t").status().IsInvalidArgument());
  EXPECT_TRUE(Parse("CREATE VIEW v").status().IsInvalidArgument());
  EXPECT_TRUE(Parse("SELECT * FROM t WHERE a <> 3").status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Parse("SELECT * FROM t extra").status().IsInvalidArgument());
  EXPECT_TRUE(Parse("INSERT INTO t VALUES (1,)").status().IsInvalidArgument());
  EXPECT_TRUE(Parse("SELECT * FROM t LIMIT -1").status().IsInvalidArgument());
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("segdiff_sql");
    RemoveTestStore(path_);
    auto db = Database::Open(path_, DatabaseOptions{});
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    engine_ = std::make_unique<Engine>(db_.get());
  }
  void TearDown() override {
    engine_.reset();
    db_.reset();
    RemoveTestStore(path_);
  }

  QueryResult MustExecute(const std::string& statement) {
    auto result = engine_->Execute(statement);
    EXPECT_TRUE(result.ok()) << statement << ": "
                             << result.status().ToString();
    return result.ok() ? std::move(result).value() : QueryResult{};
  }

  std::string path_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Engine> engine_;
};

TEST_F(EngineTest, EndToEnd) {
  MustExecute("CREATE TABLE f (dt DOUBLE, dv DOUBLE, tag BIGINT)");
  MustExecute("CREATE INDEX pt ON f (dt, dv)");
  for (int i = 0; i < 100; ++i) {
    char sql[128];
    std::snprintf(sql, sizeof(sql), "INSERT INTO f VALUES (%d, %d, %d)", i,
                  50 - i, i);
    EXPECT_EQ(MustExecute(sql).rows_affected, 1u);
  }
  QueryResult all = MustExecute("SELECT COUNT(*) FROM f");
  ASSERT_EQ(all.rows.size(), 1u);
  EXPECT_EQ(all.rows[0][0].i, 100);

  // Range query uses the index (dt has an upper bound).
  QueryResult ranged =
      MustExecute("SELECT dt, dv FROM f WHERE dt <= 10 AND dv <= 45");
  EXPECT_EQ(ranged.access_path, "index_scan(pt)");
  EXPECT_EQ(ranged.rows.size(), 6u);  // dt in [5, 10]

  // Same result via forced table scan semantics (no upper bound on the
  // index's leading column -> seq scan).
  QueryResult scanned =
      MustExecute("SELECT dt, dv FROM f WHERE dv <= 45 AND dv >= 40");
  EXPECT_EQ(scanned.access_path, "seq_scan");
  EXPECT_EQ(scanned.rows.size(), 6u);  // dv in [40,45] -> dt in [5,10]

  // ORDER BY + LIMIT.
  QueryResult top =
      MustExecute("SELECT dt FROM f ORDER BY dt DESC LIMIT 3");
  ASSERT_EQ(top.rows.size(), 3u);
  EXPECT_DOUBLE_EQ(top.rows[0][0].d, 99);
  EXPECT_DOUBLE_EQ(top.rows[2][0].d, 97);

  // SHOW TABLES / DESCRIBE.
  QueryResult tables = MustExecute("SHOW TABLES");
  ASSERT_EQ(tables.rows.size(), 1u);
  EXPECT_EQ(tables.row_labels[0], "f");
  EXPECT_EQ(tables.rows[0][0].i, 100);
  QueryResult described = MustExecute("DESCRIBE f");
  EXPECT_EQ(described.rows.size(), 4u);  // 3 columns + 1 index
}

TEST_F(EngineTest, IndexAndSeqScanAgreeOnRandomData) {
  MustExecute("CREATE TABLE r (a DOUBLE, b DOUBLE)");
  MustExecute("CREATE INDEX ia ON r (a)");
  for (int i = 0; i < 500; ++i) {
    char sql[128];
    std::snprintf(sql, sizeof(sql), "INSERT INTO r VALUES (%f, %f)",
                  (i * 37 % 100) / 3.0, (i * 53 % 100) / 7.0);
    MustExecute(sql);
  }
  // Indexed: upper bound on a.
  QueryResult via_index =
      MustExecute("SELECT a, b FROM r WHERE a <= 20 AND b <= 10");
  EXPECT_EQ(via_index.access_path, "index_scan(ia)");
  // Equivalent without touching a's upper bound trickery: count by scan
  // over b only then filter via a >= ... we instead verify by COUNT with
  // identical predicate (engine picks index again) against a manual
  // seq-scan table without the index.
  MustExecute("CREATE TABLE r2 (a DOUBLE, b DOUBLE)");
  for (int i = 0; i < 500; ++i) {
    char sql[128];
    std::snprintf(sql, sizeof(sql), "INSERT INTO r2 VALUES (%f, %f)",
                  (i * 37 % 100) / 3.0, (i * 53 % 100) / 7.0);
    MustExecute(sql);
  }
  QueryResult via_scan =
      MustExecute("SELECT a, b FROM r2 WHERE a <= 20 AND b <= 10");
  EXPECT_EQ(via_scan.access_path, "seq_scan");
  EXPECT_EQ(via_index.rows.size(), via_scan.rows.size());
}

TEST_F(EngineTest, ErrorsSurface) {
  EXPECT_TRUE(engine_->Execute("SELECT * FROM missing").status().IsNotFound());
  MustExecute("CREATE TABLE t (a DOUBLE)");
  EXPECT_TRUE(
      engine_->Execute("CREATE TABLE t (a DOUBLE)").status().IsAlreadyExists());
  EXPECT_TRUE(
      engine_->Execute("INSERT INTO t VALUES (1, 2)").status()
          .IsInvalidArgument());
  EXPECT_TRUE(
      engine_->Execute("SELECT b FROM t").status().IsNotFound());
  EXPECT_TRUE(engine_->Execute("SELECT * FROM t WHERE b <= 1").status()
                  .IsNotFound());
  MustExecute("CREATE TABLE ti (a BIGINT)");
  EXPECT_TRUE(engine_->Execute("SELECT * FROM ti WHERE a <= 1").status()
                  .IsNotSupported());
}

TEST_F(EngineTest, FormatResult) {
  MustExecute("CREATE TABLE t (a DOUBLE, n BIGINT)");
  MustExecute("INSERT INTO t VALUES (1.5, 7)");
  QueryResult result = MustExecute("SELECT * FROM t");
  const std::string text = FormatResult(result);
  EXPECT_NE(text.find("a | n"), std::string::npos);
  EXPECT_NE(text.find("1.5 | 7"), std::string::npos);
  EXPECT_NE(text.find("(1 rows)"), std::string::npos);

  QueryResult ddl = MustExecute("CREATE INDEX i ON t (a)");
  EXPECT_NE(FormatResult(ddl).find("ok"), std::string::npos);
}

TEST_F(EngineTest, AggregatesAndExplain) {
  MustExecute("CREATE TABLE g (a DOUBLE, b DOUBLE)");
  MustExecute("CREATE INDEX ia ON g (a)");
  for (int i = 1; i <= 10; ++i) {
    char sql[96];
    std::snprintf(sql, sizeof(sql), "INSERT INTO g VALUES (%d, %d)", i,
                  i * i);
    MustExecute(sql);
  }
  EXPECT_DOUBLE_EQ(MustExecute("SELECT MIN(b) FROM g").rows[0][0].d, 1.0);
  EXPECT_DOUBLE_EQ(MustExecute("SELECT MAX(b) FROM g").rows[0][0].d, 100.0);
  EXPECT_DOUBLE_EQ(MustExecute("SELECT SUM(a) FROM g").rows[0][0].d, 55.0);
  EXPECT_DOUBLE_EQ(MustExecute("SELECT AVG(a) FROM g").rows[0][0].d, 5.5);
  // Aggregates respect WHERE and use the index when possible.
  QueryResult filtered = MustExecute("SELECT SUM(b) FROM g WHERE a <= 3");
  EXPECT_EQ(filtered.access_path, "index_scan(ia)");
  EXPECT_DOUBLE_EQ(filtered.rows[0][0].d, 14.0);  // 1 + 4 + 9
  // MIN over an empty set: no rows.
  EXPECT_TRUE(
      MustExecute("SELECT MIN(a) FROM g WHERE a > 100").rows.empty());
  // SUM over an empty set is 0 (SQL would say NULL; we have no NULLs).
  EXPECT_DOUBLE_EQ(
      MustExecute("SELECT SUM(a) FROM g WHERE a > 100").rows[0][0].d, 0.0);
  // Header names the aggregate.
  EXPECT_EQ(MustExecute("SELECT AVG(b) FROM g").columns[0], "avg(b)");

  // EXPLAIN reports the plan without executing.
  QueryResult plan = MustExecute("EXPLAIN SELECT * FROM g WHERE a <= 2");
  ASSERT_EQ(plan.row_labels.size(), 7u);
  EXPECT_NE(plan.row_labels[1].find("index_scan(ia)"), std::string::npos);
  EXPECT_NE(plan.row_labels[3].find("zone map:"), std::string::npos);
  EXPECT_NE(plan.row_labels[4].find("format: row pages="), std::string::npos);
  // A pure row store reports no compression and no segment directory.
  EXPECT_NE(plan.row_labels[5].find("compression: none"), std::string::npos);
  EXPECT_NE(plan.row_labels[6].find("segment dir: none"), std::string::npos);
  plan = MustExecute("EXPLAIN SELECT * FROM g WHERE b >= 5");
  EXPECT_NE(plan.row_labels[1].find("seq_scan"), std::string::npos);
  EXPECT_TRUE(
      engine_->Execute("EXPLAIN DELETE FROM g").status().IsInvalidArgument());
}

TEST_F(EngineTest, DeleteStatement) {
  MustExecute("CREATE TABLE d (a DOUBLE, b DOUBLE)");
  MustExecute("CREATE INDEX ia ON d (a)");
  for (int i = 0; i < 100; ++i) {
    char sql[96];
    std::snprintf(sql, sizeof(sql), "INSERT INTO d VALUES (%d, %d)", i,
                  100 - i);
    MustExecute(sql);
  }
  QueryResult removed = MustExecute("DELETE FROM d WHERE a < 30 AND b > 80");
  EXPECT_EQ(removed.rows_affected, 20u);  // a in [0,19]
  QueryResult rest = MustExecute("SELECT COUNT(*) FROM d");
  EXPECT_EQ(rest.rows[0][0].i, 80);
  // Index still answers range queries after the rewrite.
  QueryResult ranged = MustExecute("SELECT a FROM d WHERE a <= 25");
  EXPECT_EQ(ranged.access_path, "index_scan(ia)");
  EXPECT_EQ(ranged.rows.size(), 6u);  // 20..25
  // Unconditional DELETE empties the table.
  QueryResult all = MustExecute("DELETE FROM d");
  EXPECT_EQ(all.rows_affected, 80u);
  EXPECT_EQ(MustExecute("SELECT COUNT(*) FROM d").rows[0][0].i, 0);
}

TEST_F(EngineTest, DeleteParseAndErrors) {
  auto stmt = sql::Parse("DELETE FROM t WHERE x >= 2");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->kind, StatementKind::kDelete);
  EXPECT_EQ(stmt->del.table, "t");
  ASSERT_EQ(stmt->del.where.size(), 1u);
  EXPECT_TRUE(sql::Parse("DELETE t").status().IsInvalidArgument());
  EXPECT_TRUE(
      engine_->Execute("DELETE FROM missing").status().IsNotFound());
}

TEST_F(EngineTest, PersistsAcrossReopen) {
  MustExecute("CREATE TABLE p (x DOUBLE)");
  MustExecute("INSERT INTO p VALUES (1), (2), (3)");
  ASSERT_TRUE(db_->Checkpoint().ok());
  engine_.reset();
  db_.reset();
  auto db = Database::Open(path_, DatabaseOptions{});
  ASSERT_TRUE(db.ok());
  db_ = std::move(db).value();
  engine_ = std::make_unique<Engine>(db_.get());
  QueryResult count = MustExecute("SELECT COUNT(*) FROM p");
  EXPECT_EQ(count.rows[0][0].i, 3);
}

// Compaction converts the all-double table to columnar segments, which
// carry no index: CREATE INDEX on it is refused without touching the
// catalog, while the BIGINT table stays in row format with its index.
TEST_F(EngineTest, CreateIndexOnCompactedTableIsRefused) {
  MustExecute("CREATE TABLE c (a DOUBLE, b DOUBLE)");
  MustExecute("CREATE TABLE r (a DOUBLE, n BIGINT)");
  MustExecute("CREATE INDEX ic ON c (a)");
  MustExecute("CREATE INDEX ir ON r (a)");
  for (int i = 0; i < 50; ++i) {
    char sql[96];
    std::snprintf(sql, sizeof(sql), "INSERT INTO c VALUES (%d, %d)", i, -i);
    MustExecute(sql);
    std::snprintf(sql, sizeof(sql), "INSERT INTO r VALUES (%d, %d)", i, i);
    MustExecute(sql);
  }
  const std::string compact_path = UniqueTestPath("segdiff_sql_compact");
  RemoveTestStore(compact_path);
  ASSERT_TRUE(db_->CompactInto(compact_path).ok());
  engine_.reset();
  db_.reset();
  auto db = Database::Open(compact_path, DatabaseOptions{});
  ASSERT_TRUE(db.ok());
  db_ = std::move(db).value();
  engine_ = std::make_unique<Engine>(db_.get());

  const QueryResult before = MustExecute("SHOW TABLES");
  ASSERT_EQ(before.row_labels, (std::vector<std::string>{"c", "r"}));
  EXPECT_EQ(before.rows[0][1].i, 0);  // c: columnar, index not copied
  EXPECT_EQ(before.rows[1][1].i, 1);  // r: row format keeps ir
  const uint64_t file_bytes = db_->pager()->FileSizeBytes();
  EXPECT_TRUE(
      engine_->Execute("CREATE INDEX ic ON c (a)").status().IsNotSupported());
  const QueryResult after = MustExecute("SHOW TABLES");
  EXPECT_EQ(after.row_labels, before.row_labels);
  ASSERT_EQ(after.rows.size(), before.rows.size());
  for (size_t i = 0; i < after.rows.size(); ++i) {
    EXPECT_EQ(after.rows[i][0].i, before.rows[i][0].i);
    EXPECT_EQ(after.rows[i][1].i, before.rows[i][1].i);
  }
  EXPECT_EQ(db_->pager()->FileSizeBytes(), file_bytes);

  QueryResult scanned = MustExecute("SELECT COUNT(*) FROM c WHERE a <= 9");
  EXPECT_EQ(scanned.access_path, "seq_scan");
  EXPECT_EQ(scanned.rows[0][0].i, 10);
  QueryResult indexed = MustExecute("SELECT COUNT(*) FROM r WHERE a <= 9");
  EXPECT_EQ(indexed.access_path, "index_scan(ir)");
  EXPECT_EQ(indexed.rows[0][0].i, 10);

  engine_.reset();
  db_.reset();
  RemoveTestStore(compact_path);
}

// Fuzz-ish robustness: random byte strings and random token recombinations
// must never crash the parser — only return error Statuses.
TEST(ParserFuzzTest, RandomInputsNeverCrash) {
  Rng rng(20080325);
  const std::string alphabet =
      "SELECT FROM WHERE AND INSERT INTO VALUES CREATE TABLE INDEX ON "
      "DELETE LIMIT ORDER BY abc xyz 0 1.5 -2 ( ) , * ; = < > <= >= ' ";
  for (int trial = 0; trial < 2000; ++trial) {
    std::string input;
    const int len = static_cast<int>(rng.UniformInt(0, 60));
    for (int i = 0; i < len; ++i) {
      input.push_back(
          alphabet[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(alphabet.size() - 1)))]);
    }
    auto result = Parse(input);  // must not crash; status is free to fail
    if (result.ok()) {
      continue;
    }
    EXPECT_TRUE(result.status().IsInvalidArgument())
        << input << " -> " << result.status().ToString();
  }
}

TEST(ParserFuzzTest, TruncationsOfValidStatements) {
  const std::string statements[] = {
      "SELECT dt1, dv1 FROM drop2 WHERE dt1 <= 3600 AND dv1 <= -3 "
      "ORDER BY dt1 LIMIT 5;",
      "CREATE TABLE t (a DOUBLE, b BIGINT)",
      "INSERT INTO t VALUES (1, 2), (3, 4)",
      "DELETE FROM t WHERE a >= 0.5",
  };
  for (const std::string& statement : statements) {
    for (size_t cut = 0; cut < statement.size(); ++cut) {
      auto result = Parse(statement.substr(0, cut));
      // Prefixes are either valid statements or clean parse errors.
      if (!result.ok()) {
        EXPECT_TRUE(result.status().IsInvalidArgument());
      }
    }
    EXPECT_TRUE(Parse(statement).ok()) << statement;
  }
}

}  // namespace
}  // namespace sql
}  // namespace segdiff
