// Row-at-a-time reference for the 22 TPC-H queries (see
// tpch_reference.cc).
#ifndef PERFBENCH_TPCH_REFERENCE_H_
#define PERFBENCH_TPCH_REFERENCE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "checks.h"
#include "tpch/datagen.h"

namespace perfbench {

/// Plain extraction of the generated instance (the reference's input).
struct TpchData {
  // lineitem
  std::vector<int64_t> l_orderkey, l_partkey, l_suppkey, l_shipyear;
  std::vector<double> l_quantity, l_extendedprice, l_discount, l_tax;
  std::vector<int64_t> l_shipdate, l_commitdate, l_receiptdate;
  std::vector<uint32_t> l_returnflag, l_linestatus, l_shipmode,
      l_shipinstruct;
  // orders
  std::vector<int64_t> o_orderkey, o_custkey, o_shippriority, o_orderyear,
      o_comment_class;
  std::vector<uint32_t> o_orderstatus, o_orderpriority;
  std::vector<double> o_totalprice;
  std::vector<int64_t> o_orderdate;
  // part
  std::vector<int64_t> p_partkey, p_size, p_is_promo;
  std::vector<uint32_t> p_brand, p_container, p_type, p_name_color;
  std::vector<double> p_retailprice;
  // customer
  std::vector<int64_t> c_custkey, c_nationkey, c_phone_cc;
  std::vector<uint32_t> c_mktsegment;
  std::vector<double> c_acctbal;
  // supplier
  std::vector<int64_t> s_suppkey, s_nationkey, s_is_complaint;
  std::vector<double> s_acctbal;
  // partsupp
  std::vector<int64_t> ps_partkey, ps_suppkey;
  std::vector<double> ps_availqty, ps_supplycost;
  // nation / region
  std::vector<int64_t> n_nationkey, n_regionkey;
  std::vector<uint32_t> n_name;
  std::vector<int64_t> r_regionkey;
  std::vector<uint32_t> r_name;

  // Dictionary code lookups (resolved once per instance).
  uint32_t code_R = 0, code_AIR = 0, code_REG_AIR = 0, code_DELIVER = 0,
           code_F_status = 0;
};

/// Reads every column of every table row by row (latest committed
/// values).
std::unique_ptr<TpchData> ExtractTpch(const anker::tpch::TpchInstance& inst);

/// The reference rows of query `q` (1-based) under Tpch22::ParamsFor;
/// throws std::runtime_error when the instance lacks a needed value.
std::vector<RefRow> ReferenceRows(int q, const TpchData& d,
                                  const anker::tpch::TpchInstance& inst);

}  // namespace perfbench

#endif  // PERFBENCH_TPCH_REFERENCE_H_
