#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

std::string Describe(const std::string& what, double got, double want) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), ": got %.17g want %.17g", got, want);
  return what + buf;
}

bool Near(double a, double b) {
  return std::fabs(a - b) <=
         kRelTolerance * std::max({1.0, std::fabs(a), std::fabs(b)});
}

}  // namespace

std::string CheckNear(const std::string& what, double got, double want) {
  return Near(got, want) ? "" : Describe(what, got, want);
}

std::string CheckEqual(const std::string& what, double got, double want) {
  return got == want ? "" : Describe(what, got, want);
}

std::string CheckBalances(const std::vector<double>& read,
                          const std::vector<double>& model) {
  if (read.size() != model.size()) {
    return Describe("account count", static_cast<double>(read.size()),
                    static_cast<double>(model.size()));
  }
  for (size_t i = 0; i < read.size(); ++i) {
    if (read[i] != model[i]) {
      return Describe("balance of account " + std::to_string(i), read[i],
                      model[i]);
    }
  }
  return "";
}

std::string CheckRows(int q, const anker::query::QueryResult& result,
                      std::vector<RefRow> ref, bool ordered) {
  const std::string name = "Q" + std::to_string(q);
  if (ref.empty()) return name + ": reference is empty";
  if (result.rows.size() != ref.size()) {
    return Describe(name + " row count", static_cast<double>(result.rows.size()),
                    static_cast<double>(ref.size()));
  }
  std::vector<RefRow> got;
  got.reserve(result.rows.size());
  for (const auto& row : result.rows) got.push_back({row.keys, row.values});
  if (!ordered) {
    auto canon = [](const RefRow& a, const RefRow& b) {
      if (a.keys != b.keys) return a.keys < b.keys;
      return a.values < b.values;
    };
    std::sort(got.begin(), got.end(), canon);
    std::sort(ref.begin(), ref.end(), canon);
  }
  for (size_t r = 0; r < ref.size(); ++r) {
    const std::string where = name + " row " + std::to_string(r);
    if (got[r].keys != ref[r].keys) return where + ": keys differ";
    if (got[r].values.size() != ref[r].values.size()) {
      return where + ": value count differs";
    }
    for (size_t v = 0; v < ref[r].values.size(); ++v) {
      if (!Near(got[r].values[v], ref[r].values[v])) {
        return Describe(where + " value " + std::to_string(v),
                        got[r].values[v], ref[r].values[v]);
      }
    }
  }
  return "";
}

}  // namespace perfbench
