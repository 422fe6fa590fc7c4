#include "tpch/tpch.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "storage/table_appender.h"
#include "types/type.h"

namespace agora {

namespace {

constexpr int64_t kSf1Supplier = 10000;
constexpr int64_t kSf1Customer = 150000;
constexpr int64_t kSf1Part = 200000;
constexpr int64_t kSf1Orders = 1500000;

const char* kRegionNames[5] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                               "MIDDLE EAST"};
const char* kNationNames[25] = {
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
    "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
    "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA",
    "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"};
// region of each nation (as in the TPC-H spec).
const int kNationRegion[25] = {0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2,
                               4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1};
const char* kSegments[5] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                            "HOUSEHOLD", "MACHINERY"};
const char* kPriorities[5] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                              "4-NOT SPECIFIED", "5-LOW"};
const char* kShipModes[7] = {"AIR", "FOB", "MAIL", "RAIL", "REG AIR",
                             "SHIP", "TRUCK"};
const char* kTypes[6] = {"STANDARD ANODIZED", "SMALL PLATED",
                         "MEDIUM POLISHED", "LARGE BURNISHED",
                         "ECONOMY BRUSHED", "PROMO ANODIZED"};

int64_t Scaled(int64_t sf1, double sf) {
  return std::max<int64_t>(1, static_cast<int64_t>(std::llround(
                                  static_cast<double>(sf1) * sf)));
}

Schema RegionSchema() {
  return Schema({{"r_regionkey", TypeId::kInt64, false},
                 {"r_name", TypeId::kString, false},
                 {"r_comment", TypeId::kString, true}});
}
Schema NationSchema() {
  return Schema({{"n_nationkey", TypeId::kInt64, false},
                 {"n_name", TypeId::kString, false},
                 {"n_regionkey", TypeId::kInt64, false},
                 {"n_comment", TypeId::kString, true}});
}
Schema SupplierSchema() {
  return Schema({{"s_suppkey", TypeId::kInt64, false},
                 {"s_name", TypeId::kString, false},
                 {"s_nationkey", TypeId::kInt64, false},
                 {"s_acctbal", TypeId::kDouble, false},
                 {"s_comment", TypeId::kString, true}});
}
Schema CustomerSchema() {
  return Schema({{"c_custkey", TypeId::kInt64, false},
                 {"c_name", TypeId::kString, false},
                 {"c_nationkey", TypeId::kInt64, false},
                 {"c_mktsegment", TypeId::kString, false},
                 {"c_acctbal", TypeId::kDouble, false},
                 {"c_comment", TypeId::kString, true}});
}
Schema PartSchema() {
  return Schema({{"p_partkey", TypeId::kInt64, false},
                 {"p_name", TypeId::kString, false},
                 {"p_mfgr", TypeId::kString, false},
                 {"p_brand", TypeId::kString, false},
                 {"p_type", TypeId::kString, false},
                 {"p_size", TypeId::kInt64, false},
                 {"p_retailprice", TypeId::kDouble, false}});
}
Schema PartsuppSchema() {
  return Schema({{"ps_partkey", TypeId::kInt64, false},
                 {"ps_suppkey", TypeId::kInt64, false},
                 {"ps_availqty", TypeId::kInt64, false},
                 {"ps_supplycost", TypeId::kDouble, false}});
}
Schema OrdersSchema() {
  return Schema({{"o_orderkey", TypeId::kInt64, false},
                 {"o_custkey", TypeId::kInt64, false},
                 {"o_orderstatus", TypeId::kString, false},
                 {"o_totalprice", TypeId::kDouble, false},
                 {"o_orderdate", TypeId::kDate, false},
                 {"o_orderpriority", TypeId::kString, false},
                 {"o_shippriority", TypeId::kInt64, false}});
}
Schema LineitemSchema() {
  return Schema({{"l_orderkey", TypeId::kInt64, false},
                 {"l_partkey", TypeId::kInt64, false},
                 {"l_suppkey", TypeId::kInt64, false},
                 {"l_linenumber", TypeId::kInt64, false},
                 {"l_quantity", TypeId::kDouble, false},
                 {"l_extendedprice", TypeId::kDouble, false},
                 {"l_discount", TypeId::kDouble, false},
                 {"l_tax", TypeId::kDouble, false},
                 {"l_returnflag", TypeId::kString, false},
                 {"l_linestatus", TypeId::kString, false},
                 {"l_shipdate", TypeId::kDate, false},
                 {"l_commitdate", TypeId::kDate, false},
                 {"l_receiptdate", TypeId::kDate, false},
                 {"l_shipmode", TypeId::kString, false}});
}

}  // namespace

int64_t TpchRowsAtScale(const std::string& table, double sf) {
  if (table == "region") return 5;
  if (table == "nation") return 25;
  if (table == "supplier") return Scaled(kSf1Supplier, sf);
  if (table == "customer") return Scaled(kSf1Customer, sf);
  if (table == "part") return Scaled(kSf1Part, sf);
  if (table == "partsupp") return 4 * Scaled(kSf1Part, sf);
  if (table == "orders") return Scaled(kSf1Orders, sf);
  if (table == "lineitem") return 4 * Scaled(kSf1Orders, sf);  // expected
  return 0;
}

Status GenerateTpch(const TpchOptions& options, Catalog* catalog) {
  const double sf = options.scale_factor;
  Rng rng(options.seed);

  const int64_t num_suppliers = Scaled(kSf1Supplier, sf);
  const int64_t num_customers = Scaled(kSf1Customer, sf);
  const int64_t num_parts = Scaled(kSf1Part, sf);
  const int64_t num_orders = Scaled(kSf1Orders, sf);

  const int64_t start_date = MakeDate(1992, 1, 1);
  const int64_t end_date = MakeDate(1998, 8, 2);

  // -- region ------------------------------------------------------------
  {
    auto table = std::make_shared<Table>("region", RegionSchema());
    TableAppender rows(table.get());
    for (int64_t r = 0; r < 5; ++r) {
      rows.Int64(r);
      rows.String(kRegionNames[r]);
      rows.String("synthetic region comment " + rng.NextString(4, 12));
      AGORA_RETURN_IF_ERROR(rows.EndRow());
    }
    AGORA_RETURN_IF_ERROR(rows.Finish());
    AGORA_RETURN_IF_ERROR(catalog->RegisterTable(std::move(table)));
  }

  // -- nation ------------------------------------------------------------
  {
    auto table = std::make_shared<Table>("nation", NationSchema());
    TableAppender rows(table.get());
    for (int64_t n = 0; n < 25; ++n) {
      rows.Int64(n);
      rows.String(kNationNames[n]);
      rows.Int64(kNationRegion[n]);
      rows.String("synthetic nation comment " + rng.NextString(4, 12));
      AGORA_RETURN_IF_ERROR(rows.EndRow());
    }
    AGORA_RETURN_IF_ERROR(rows.Finish());
    AGORA_RETURN_IF_ERROR(catalog->RegisterTable(std::move(table)));
  }

  // -- supplier ----------------------------------------------------------
  {
    auto table = std::make_shared<Table>("supplier", SupplierSchema());
    table->Reserve(num_suppliers);
    TableAppender rows(table.get());
    for (int64_t s = 1; s <= num_suppliers; ++s) {
      rows.Int64(s);
      rows.String("Supplier#" + std::to_string(s));
      rows.Int64(rng.Uniform(0, 24));
      rows.Double(rng.UniformDouble(-999.99, 9999.99));
      rows.String(rng.NextString(10, 30));
      AGORA_RETURN_IF_ERROR(rows.EndRow());
    }
    AGORA_RETURN_IF_ERROR(rows.Finish());
    AGORA_RETURN_IF_ERROR(catalog->RegisterTable(std::move(table)));
  }

  // -- customer ----------------------------------------------------------
  {
    auto table = std::make_shared<Table>("customer", CustomerSchema());
    table->Reserve(num_customers);
    TableAppender rows(table.get());
    for (int64_t c = 1; c <= num_customers; ++c) {
      rows.Int64(c);
      rows.String("Customer#" + std::to_string(c));
      rows.Int64(rng.Uniform(0, 24));
      rows.String(kSegments[rng.Uniform(0, 4)]);
      rows.Double(rng.UniformDouble(-999.99, 9999.99));
      rows.String(rng.NextString(10, 40));
      AGORA_RETURN_IF_ERROR(rows.EndRow());
    }
    AGORA_RETURN_IF_ERROR(rows.Finish());
    AGORA_RETURN_IF_ERROR(catalog->RegisterTable(std::move(table)));
  }

  // -- part --------------------------------------------------------------
  {
    auto table = std::make_shared<Table>("part", PartSchema());
    table->Reserve(num_parts);
    TableAppender rows(table.get());
    for (int64_t p = 1; p <= num_parts; ++p) {
      int mfgr = static_cast<int>(rng.Uniform(1, 5));
      int brand = mfgr * 10 + static_cast<int>(rng.Uniform(1, 5));
      double retail =
          (90000.0 + static_cast<double>(p % 200001) / 10.0 +
           100.0 * static_cast<double>(p % 1000)) / 100.0;
      rows.Int64(p);
      rows.String("part " + rng.NextString(6, 20));
      rows.String("Manufacturer#" + std::to_string(mfgr));
      rows.String("Brand#" + std::to_string(brand));
      // The finish is drawn before the type: the data was first generated
      // with both draws as operands of one `+`, whose order is unspecified
      // and which g++ evaluated right to left. Named draws pin that order
      // for every compiler.
      const bool tin = rng.Bernoulli(0.5);
      rows.String(std::string(kTypes[rng.Uniform(0, 5)]) +
                  (tin ? " TIN" : " BRASS"));
      rows.Int64(rng.Uniform(1, 50));
      rows.Double(retail);
      AGORA_RETURN_IF_ERROR(rows.EndRow());
    }
    AGORA_RETURN_IF_ERROR(rows.Finish());
    AGORA_RETURN_IF_ERROR(catalog->RegisterTable(std::move(table)));
  }

  // -- partsupp: 4 suppliers per part -------------------------------------
  {
    auto table = std::make_shared<Table>("partsupp", PartsuppSchema());
    table->Reserve(4 * num_parts);
    TableAppender rows(table.get());
    for (int64_t p = 1; p <= num_parts; ++p) {
      for (int i = 0; i < 4; ++i) {
        int64_t supp =
            1 + (p + i * (num_suppliers / 4 + 1)) % num_suppliers;
        rows.Int64(p);
        rows.Int64(supp);
        rows.Int64(rng.Uniform(1, 9999));
        rows.Double(rng.UniformDouble(1.0, 1000.0));
        AGORA_RETURN_IF_ERROR(rows.EndRow());
      }
    }
    AGORA_RETURN_IF_ERROR(rows.Finish());
    AGORA_RETURN_IF_ERROR(catalog->RegisterTable(std::move(table)));
  }

  // -- orders + lineitem ---------------------------------------------------
  {
    auto orders = std::make_shared<Table>("orders", OrdersSchema());
    auto lineitem = std::make_shared<Table>("lineitem", LineitemSchema());
    orders->Reserve(num_orders);
    // Lines per order are uniform on 1..7 (mean 4, standard deviation 2):
    // room for the mean total plus eight standard deviations, so the
    // columns are practically never regrown at the end of the load.
    lineitem->Reserve(static_cast<size_t>(
        4 * num_orders + 16 * std::sqrt(static_cast<double>(num_orders))));
    TableAppender order_rows(orders.get());
    TableAppender line_rows(lineitem.get());
    // Return flag / line status per the spec's date rules.
    const int64_t current_date = MakeDate(1995, 6, 17);
    for (int64_t o = 1; o <= num_orders; ++o) {
      int64_t custkey = rng.Uniform(1, num_customers);
      int64_t orderdate = rng.Uniform(start_date, end_date - 151);
      int num_lines = static_cast<int>(rng.Uniform(1, 7));
      double total = 0;
      int lines_shipped = 0;
      for (int line = 1; line <= num_lines; ++line) {
        double quantity = static_cast<double>(rng.Uniform(1, 50));
        int64_t partkey = rng.Uniform(1, num_parts);
        int64_t suppkey = rng.Uniform(1, num_suppliers);
        double price = quantity * rng.UniformDouble(900.0, 100000.0) / 100.0;
        double discount = static_cast<double>(rng.Uniform(0, 10)) / 100.0;
        double tax = static_cast<double>(rng.Uniform(0, 8)) / 100.0;
        int64_t shipdate = orderdate + rng.Uniform(1, 121);
        int64_t commitdate = orderdate + rng.Uniform(30, 90);
        int64_t receiptdate = shipdate + rng.Uniform(1, 30);
        const char* returnflag = "N";
        if (receiptdate <= current_date) {
          returnflag = rng.Bernoulli(0.5) ? "R" : "A";
        }
        const bool shipped = shipdate <= current_date;
        if (shipped) ++lines_shipped;
        total += price * (1 - discount) * (1 + tax);
        line_rows.Int64(o);
        line_rows.Int64(partkey);
        line_rows.Int64(suppkey);
        line_rows.Int64(line);
        line_rows.Double(quantity);
        line_rows.Double(price);
        line_rows.Double(discount);
        line_rows.Double(tax);
        line_rows.String(returnflag);
        line_rows.String(shipped ? "F" : "O");
        line_rows.Date(shipdate);
        line_rows.Date(commitdate);
        line_rows.Date(receiptdate);
        line_rows.String(kShipModes[rng.Uniform(0, 6)]);
        AGORA_RETURN_IF_ERROR(line_rows.EndRow());
      }
      order_rows.Int64(o);
      order_rows.Int64(custkey);
      order_rows.String(lines_shipped == num_lines ? "F"
                        : lines_shipped == 0       ? "O"
                                                   : "P");
      order_rows.Double(total);
      order_rows.Date(orderdate);
      order_rows.String(kPriorities[rng.Uniform(0, 4)]);
      order_rows.Int64(0);
      AGORA_RETURN_IF_ERROR(order_rows.EndRow());
    }
    AGORA_RETURN_IF_ERROR(order_rows.Finish());
    AGORA_RETURN_IF_ERROR(line_rows.Finish());
    AGORA_RETURN_IF_ERROR(catalog->RegisterTable(std::move(orders)));
    AGORA_RETURN_IF_ERROR(catalog->RegisterTable(std::move(lineitem)));
  }

  return Status::OK();
}

std::string TpchQ1() {
  return R"(
    SELECT l_returnflag, l_linestatus,
           SUM(l_quantity) AS sum_qty,
           SUM(l_extendedprice) AS sum_base_price,
           SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
           SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
           AVG(l_quantity) AS avg_qty,
           AVG(l_extendedprice) AS avg_price,
           AVG(l_discount) AS avg_disc,
           COUNT(*) AS count_order
    FROM lineitem
    WHERE l_shipdate <= DATE '1998-09-02'
    GROUP BY l_returnflag, l_linestatus
    ORDER BY l_returnflag, l_linestatus
  )";
}

std::string TpchQ3() {
  return R"(
    SELECT l_orderkey,
           SUM(l_extendedprice * (1 - l_discount)) AS revenue,
           o_orderdate, o_shippriority
    FROM customer, orders, lineitem
    WHERE c_mktsegment = 'BUILDING'
      AND c_custkey = o_custkey
      AND l_orderkey = o_orderkey
      AND o_orderdate < DATE '1995-03-15'
      AND l_shipdate > DATE '1995-03-15'
    GROUP BY l_orderkey, o_orderdate, o_shippriority
    ORDER BY revenue DESC, o_orderdate
    LIMIT 10
  )";
}

std::string TpchQ5() {
  return R"(
    SELECT n_name,
           SUM(l_extendedprice * (1 - l_discount)) AS revenue
    FROM customer, orders, lineitem, supplier, nation, region
    WHERE c_custkey = o_custkey
      AND l_orderkey = o_orderkey
      AND l_suppkey = s_suppkey
      AND c_nationkey = s_nationkey
      AND s_nationkey = n_nationkey
      AND n_regionkey = r_regionkey
      AND r_name = 'ASIA'
      AND o_orderdate >= DATE '1994-01-01'
      AND o_orderdate < DATE '1995-01-01'
    GROUP BY n_name
    ORDER BY revenue DESC
  )";
}

std::string TpchQ10() {
  return R"(
    SELECT c_custkey, c_name,
           SUM(l_extendedprice * (1 - l_discount)) AS revenue,
           c_acctbal, n_name
    FROM customer, orders, lineitem, nation
    WHERE c_custkey = o_custkey
      AND l_orderkey = o_orderkey
      AND o_orderdate >= DATE '1993-10-01'
      AND o_orderdate < DATE '1994-01-01'
      AND l_returnflag = 'R'
      AND c_nationkey = n_nationkey
    GROUP BY c_custkey, c_name, c_acctbal, n_name
    ORDER BY revenue DESC
    LIMIT 20
  )";
}

std::string TpchQ12() {
  return R"(
    SELECT l_shipmode,
           SUM(CASE WHEN o_orderpriority = '1-URGENT'
                      OR o_orderpriority = '2-HIGH'
                    THEN 1 ELSE 0 END) AS high_line_count,
           SUM(CASE WHEN o_orderpriority <> '1-URGENT'
                     AND o_orderpriority <> '2-HIGH'
                    THEN 1 ELSE 0 END) AS low_line_count
    FROM orders, lineitem
    WHERE o_orderkey = l_orderkey
      AND l_shipmode IN ('MAIL', 'SHIP')
      AND l_commitdate < l_receiptdate
      AND l_shipdate < l_commitdate
      AND l_receiptdate >= DATE '1994-01-01'
      AND l_receiptdate < DATE '1995-01-01'
    GROUP BY l_shipmode
    ORDER BY l_shipmode
  )";
}

std::string TpchQ14() {
  return R"(
    SELECT 100.00 * SUM(CASE WHEN p_type LIKE 'PROMO%'
                             THEN l_extendedprice * (1 - l_discount)
                             ELSE 0.0 END)
           / SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue
    FROM lineitem, part
    WHERE l_partkey = p_partkey
      AND l_shipdate >= DATE '1995-09-01'
      AND l_shipdate < DATE '1995-10-01'
  )";
}

std::string TpchQ6() {
  return R"(
    SELECT SUM(l_extendedprice * l_discount) AS revenue
    FROM lineitem
    WHERE l_shipdate >= DATE '1994-01-01'
      AND l_shipdate < DATE '1995-01-01'
      AND l_discount BETWEEN 0.05 AND 0.07
      AND l_quantity < 24
  )";
}

}  // namespace agora
