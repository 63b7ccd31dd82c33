// Negative tests of the output checks: every checker must accept the
// program's real result and reject a perturbed copy of it (one row, one
// balance, one digest bit, one count).
#include <bit>
#include <cstdio>
#include <vector>

#include "checks.h"
#include "engine/database.h"
#include "phases.h"
#include "tpch/datagen.h"
#include "tpch/queries.h"
#include "tpch/reference_kernels.h"
#include "tpch_reference.h"

namespace perfbench {

using namespace anker;

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

/// The checker must pass on the real value and fail on the perturbed one.
void ExpectCatches(const std::string& what, const std::string& on_real,
                   const std::string& on_perturbed) {
  Expect(on_real.empty(), what + ": accepts the real result" +
                              (on_real.empty() ? "" : " (" + on_real + ")"));
  Expect(!on_perturbed.empty(),
         what + ": rejects the perturbed result" +
             (on_perturbed.empty() ? "" : " (" + on_perturbed + ")"));
}

/// Flips one bit of a digest: mantissa bit 40 moves a value by 2^-12 of
/// itself, far outside kRelTolerance (the lowest bits lie inside it by
/// design, since results summed in another order differ there); a zero
/// digest gets exponent bit 62 instead, which turns it into 2.0.
double FlipBit(double v) {
  const int bit = v != 0 ? 40 : 62;
  return std::bit_cast<double>(std::bit_cast<uint64_t>(v) ^ (1ULL << bit));
}

}  // namespace

int RunSelfTest() {
  engine::DatabaseConfig config;
  engine::Database db(config);
  tpch::TpchConfig tpch;
  tpch.lineitem_rows = 12000;
  tpch.seed = 7;
  auto loaded = tpch::LoadTpch(&db, tpch);
  ANKER_CHECK(loaded.ok());
  const tpch::TpchInstance inst = loaded.value();
  db.Start();

  // htap_stream: OLAP digest vs the reference kernel on the same epoch.
  tpch::TpchQueries queries(&db, inst);
  tpch::ReferenceKernels kernels(inst);
  Rng rng(3);
  for (tpch::OlapKind kind : tpch::kAllOlapKinds) {
    const tpch::OlapParams params = queries.RandomParams(kind, &rng);
    auto ctx = db.BeginOlap(kernels.ColumnsFor(kind));
    ANKER_CHECK(ctx.ok());
    const double got = queries.Run(kind, *ctx.value(), params).digest;
    const double want = kernels.Run(kind, *ctx.value(), params).digest;
    ANKER_CHECK(db.FinishOlap(ctx.TakeValue()).ok());
    ExpectCatches(std::string("OLAP digest ") + tpch::OlapKindName(kind),
                  CheckNear("digest", got, want),
                  CheckNear("digest", FlipBit(got), want));
  }

  // htap_stream: full-table scan vs a row-by-row sum with one row off.
  {
    storage::Column* price = inst.lineitem->GetColumn("l_extendedprice");
    auto scan = queries.RunOnEngine(tpch::OlapKind::kScanLineitem, {});
    ANKER_CHECK(scan.ok());
    auto txn = db.BeginOltp();
    double sum = 0, perturbed = 0;
    for (size_t r = 0; r < price->num_rows(); ++r) {
      const double v = storage::DecodeDouble(txn->Read(price, r));
      sum += v;
      perturbed += r == 17 ? 2 * v : v;  // One row's value doubled.
    }
    db.Abort(txn.get());
    ExpectCatches("scan sum vs Transaction::Read",
                  CheckNear("scan", scan.value().digest, sum),
                  CheckNear("scan", scan.value().digest, perturbed));
  }

  // htap_stream and wire_router: exact counts (commits, router counters,
  // scatter totals) one off.
  ExpectCatches("commit count", CheckEqual("commits", 1000, 1000),
                CheckEqual("commits", 1000, 999));
  ExpectCatches("scatter SUM", CheckEqual("sum", 4096000, 4096000),
                CheckEqual("sum", 4096000 - 7, 4096000));

  // wire_router: read-back balances with one balance off.
  {
    std::vector<double> model = {1000, 990, 1010, 1000};
    std::vector<double> read = model;
    std::vector<double> perturbed = model;
    perturbed[2] += 1;
    ExpectCatches("balances", CheckBalances(read, model),
                  CheckBalances(perturbed, model));
  }

  // tpch22_olap: every query against the row-at-a-time reference, then
  // the same result with one row perturbed (a value, a key, a lost row).
  tpch::Tpch22 tpch22(&db);
  const auto data = ExtractTpch(inst);
  for (int q = 1; q <= tpch::Tpch22::kNumQueries; ++q) {
    auto result = db.Run(tpch22.Compiled(q), tpch22.ParamsFor(q));
    ANKER_CHECK(result.ok());
    const std::vector<RefRow> ref = ReferenceRows(q, *data, inst);
    const bool ordered = tpch22.Ordered(q);
    const std::string name = "Q" + std::to_string(q) + " rows";
    const query::QueryResult& real = result.value();
    Expect(CheckRows(q, real, ref, ordered).empty(),
           name + ": accepts the real result");
    query::QueryResult value_off = real;
    auto& row = value_off.rows[value_off.rows.size() / 2];
    if (!row.values.empty()) {
      row.values.back() = row.values.back() * (1 + 1e-6) + 1e-3;
      Expect(!CheckRows(q, value_off, ref, ordered).empty(),
             name + ": rejects one value off");
    }
    query::QueryResult key_off = real;
    auto& key_row = key_off.rows[0];
    if (!key_row.keys.empty()) {
      key_row.keys[0] += 1;
      Expect(!CheckRows(q, key_off, ref, ordered).empty(),
             name + ": rejects one key off");
    }
    query::QueryResult lost = real;
    lost.rows.pop_back();
    Expect(!CheckRows(q, lost, ref, ordered).empty(),
           name + ": rejects a lost row");
  }
  db.Stop();
  std::printf("selftest: %s (%d failures)\n", g_failures ? "FAILED" : "passed",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
