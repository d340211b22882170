#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "common/string_util.h"
#include "workload/medical.h"

namespace tip::engine {
namespace {

/// Differential testing of the optimizer: every query must return the
/// same multiset of rows under every combination of physical-plan
/// toggles (hash join on/off x interval-index join on/off). Catches
/// index false-negatives, residual-predicate omissions and join-order
/// bugs that a single fixed plan would hide.
class OptimizerEquivalenceTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    ASSERT_TRUE(datablade::Install(&db_).ok());
    ASSERT_TRUE(db_.Execute("SET NOW '1999-11-15'").ok());
    workload::MedicalConfig config;
    config.seed = GetParam();
    config.rows = 300;
    config.num_patients = 30;
    config.num_drugs = 8;
    config.now_relative_fraction = 0.2;
    ASSERT_TRUE(workload::SetUpPrescriptionTable(&db_,
                                                 *datablade::TipTypes::
                                                     Lookup(db_),
                                                 config, "rx")
                    .ok());
    ASSERT_TRUE(
        db_.Execute("CREATE INDEX rx_valid ON rx (valid) USING interval")
            .ok());
  }

  // Runs `sql` and returns the sorted formatted rows.
  std::vector<std::string> Rows(std::string_view sql) {
    Result<ResultSet> r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    std::vector<std::string> out;
    if (!r.ok()) return out;
    for (const Row& row : r->rows) {
      std::string line;
      for (const Datum& value : row) {
        line += db_.types().Format(value);
        line += "|";
      }
      out.push_back(std::move(line));
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  void ExpectAllPlansAgree(const std::string& sql) {
    std::vector<std::string> reference;
    bool first = true;
    for (bool hash : {true, false}) {
      for (bool interval : {true, false}) {
        db_.set_hash_join_enabled(hash);
        db_.set_interval_join_enabled(interval);
        std::vector<std::string> rows = Rows(sql);
        if (first) {
          reference = std::move(rows);
          first = false;
        } else {
          EXPECT_EQ(rows, reference)
              << sql << " (hash=" << hash << ", interval=" << interval
              << ")";
        }
      }
    }
    db_.set_hash_join_enabled(true);
    db_.set_interval_join_enabled(true);
  }

  Database db_;
};

TEST_P(OptimizerEquivalenceTest, RandomWindowScans) {
  Rng rng(GetParam() ^ 0x11);
  for (int i = 0; i < 12; ++i) {
    const int64_t start_day = rng.Uniform(0, 3600);
    const int64_t len_days = rng.Uniform(0, 400);
    Chronon base = *Chronon::Parse("1990-01-01");
    Chronon s = *base.Add(*Span::FromDays(start_day));
    Chronon e = *s.Add(*Span::FromDays(len_days));
    ExpectAllPlansAgree(
        "SELECT patient, drug, valid FROM rx WHERE overlaps(valid, '{[" +
        s.ToString() + ", " + e.ToString() + "]}'::Element)");
  }
}

TEST_P(OptimizerEquivalenceTest, RandomTemporalJoins) {
  Rng rng(GetParam() ^ 0x22);
  for (int i = 0; i < 6; ++i) {
    const std::string d1 =
        StringPrintf("drug%04d", static_cast<int>(rng.Uniform(0, 7)));
    const std::string d2 =
        StringPrintf("drug%04d", static_cast<int>(rng.Uniform(0, 7)));
    const bool same_patient = rng.NextBool(0.5);
    std::string sql =
        "SELECT p1.patient, p2.patient, intersect(p1.valid, p2.valid) "
        "FROM rx p1, rx p2 WHERE p1.drug = '" + d1 + "' AND p2.drug = '" +
        d2 + "' AND overlaps(p1.valid, p2.valid)";
    if (same_patient) sql += " AND p1.patient = p2.patient";
    ExpectAllPlansAgree(sql);
  }
}

TEST_P(OptimizerEquivalenceTest, RandomTimeslices) {
  Rng rng(GetParam() ^ 0x33);
  for (int i = 0; i < 12; ++i) {
    Chronon base = *Chronon::Parse("1990-01-01");
    Chronon t = *base.Add(*Span::FromDays(rng.Uniform(0, 4200)));
    ExpectAllPlansAgree(
        "SELECT count(*) FROM rx WHERE overlaps(valid, '{[" +
        t.ToString() + ", " + t.ToString() + "]}'::Element)");
  }
}

TEST_P(OptimizerEquivalenceTest, JoinsUnderShiftedNow) {
  // The index must answer correctly at whatever NOW a statement runs
  // under.
  for (const char* now : {"1994-01-01", "1999-11-15", "2005-06-01"}) {
    ASSERT_TRUE(db_.Execute(std::string("SET NOW '") + now + "'").ok());
    ExpectAllPlansAgree(
        "SELECT p1.patient, p2.drug FROM rx p1, rx p2 "
        "WHERE p1.drug = 'drug0001' AND overlaps(p1.valid, p2.valid) "
        "AND p1.patient = p2.patient");
  }
}

TEST_P(OptimizerEquivalenceTest, GroundingErrorsAgreeAcrossPlans) {
  // NOW + 60 days leaves the calendar under NOW 9999-12-01: every plan
  // must fail there as the scan does, and agree on rows elsewhere.
  ASSERT_TRUE(db_.Execute("INSERT INTO rx (patient, drug, valid) VALUES "
                          "('patient9999', 'drug0001', '{[NOW, NOW+60]}')")
                  .ok());
  const std::string queries[] = {
      "SELECT patient FROM rx WHERE overlaps(valid, "
      "'{[1995-01-01, 1995-03-01]}'::Element)",
      "SELECT count(*) FROM rx WHERE overlaps(valid, "
      "'{[1999-11-20, 1999-11-20]}'::Element)",
      "SELECT p1.patient, p2.patient FROM rx p1, rx p2 "
      "WHERE p1.drug = 'drug0001' AND p2.drug = 'drug0002' "
      "AND overlaps(p1.valid, p2.valid)"};
  ASSERT_TRUE(db_.Execute("SET NOW '9999-12-01'").ok());
  for (const std::string& sql : queries) {
    for (bool hash : {true, false}) {
      for (bool interval : {true, false}) {
        db_.set_hash_join_enabled(hash);
        db_.set_interval_join_enabled(interval);
        EXPECT_EQ(db_.Execute(sql).status().code(), StatusCode::kOutOfRange)
            << sql << " (hash=" << hash << ", interval=" << interval << ")";
      }
    }
  }
  ASSERT_TRUE(db_.Execute("SET NOW '1999-11-15'").ok());
  for (const std::string& sql : queries) ExpectAllPlansAgree(sql);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerEquivalenceTest,
                         ::testing::Values(101u, 202u, 303u));

}  // namespace
}  // namespace tip::engine
