// Output checks of the benchmark. Each checker compares a result of the
// program with a value computed apart from the code under test and
// returns an empty string on agreement, else a one-line description of
// the first disagreement. They are pure functions so the self-test can
// feed them perturbed results and show that each one fails.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/query.h"

namespace perfbench {

/// Relative tolerance of floating-point comparisons: results computed in
/// another summation order agree to far better than this.
inline constexpr double kRelTolerance = 1e-9;

/// |got - want| <= kRelTolerance * max(1, |want|).
std::string CheckNear(const std::string& what, double got, double want);

/// Exact equality of a count or of an exactly representable sum.
std::string CheckEqual(const std::string& what, double got, double want);

/// Every read-back balance equals the client's model of it.
std::string CheckBalances(const std::vector<double>& read,
                          const std::vector<double>& model);

/// One result row in reference form.
struct RefRow {
  std::vector<uint64_t> keys;
  std::vector<double> values;
};

/// A query result against its reference rows: same row count, same keys,
/// values within tolerance; unordered results compare as multisets.
std::string CheckRows(int q, const anker::query::QueryResult& result,
                      std::vector<RefRow> ref, bool ordered);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
