// A small analytics application on CSV data: load flat files, build an
// index, and run nested OOSQL analytics that the optimizer turns into
// joins. Demonstrates the library as a downstream user would adopt it —
// no hand-written algebra, just DDL-free tables, CSV, and queries.
//
//   $ ./build/examples/csv_analytics

#include <cstdio>

#include "adl/printer.h"
#include "core/engine.h"
#include "storage/csv_loader.h"
#include "storage/database.h"

using namespace n2j;  // NOLINT — example code

namespace {

const char* kProductsCsv =
    "sku,pname,category,price\n"
    "1,widget,\"tools, small\",30\n"
    "2,gadget,electronics,120\n"
    "3,sprocket,tools,15\n"
    "4,flange,plumbing,45\n"
    "5,gizmo,electronics,200\n"
    "6,bracket,tools,10\n";

const char* kOrdersCsv =
    "order_id,sku,qty,region\n"
    "100,1,3,EU\n"
    "101,2,1,US\n"
    "102,1,5,US\n"
    "103,3,10,EU\n"
    "104,5,1,EU\n"
    "105,1,2,APAC\n"
    "106,6,7,US\n"
    "107,2,2,EU\n";

void Run(const QueryEngine& engine, const char* label,
         const std::string& query) {
  std::printf("--- %s\n%s\n", label, query.c_str());
  Result<QueryReport> r = engine.Run(query);
  if (!r.ok()) {
    std::printf("error: %s\n\n", r.status().ToString().c_str());
    return;
  }
  std::printf("plan: %s\n", AlgebraStr(r->optimized).c_str());
  for (const Value& row : r->result.elements()) {
    std::printf("  %s\n", row.ToString().c_str());
  }
  std::printf("stats: %s\n\n", r->exec_stats.Compact().c_str());
}

}  // namespace

int main() {
  Database db;
  N2J_CHECK(db.CreateTable("PRODUCTS",
                           Type::Tuple({{"sku", Type::Int()},
                                        {"pname", Type::String()},
                                        {"category", Type::String()},
                                        {"price", Type::Int()}}))
                .ok());
  N2J_CHECK(db.CreateTable("ORDERS",
                           Type::Tuple({{"order_id", Type::Int()},
                                        {"sku", Type::Int()},
                                        {"qty", Type::Int()},
                                        {"region", Type::String()}}))
                .ok());

  Result<size_t> products = LoadCsv(&db, "PRODUCTS", kProductsCsv);
  Result<size_t> orders = LoadCsv(&db, "ORDERS", kOrdersCsv);
  N2J_CHECK(products.ok() && orders.ok());
  std::printf("loaded %zu products, %zu orders\n\n", *products, *orders);

  // An index on the join key lets the engine use the index nested-loop
  // join for every query below.
  N2J_CHECK(db.CreateIndex("ORDERS", "sku").ok());

  RewriteOptions rewrite;
  EvalOptions exec;
  exec.join_algorithm = JoinAlgorithm::kIndex;  // use the index when it fits
  QueryEngine engine(&db, rewrite, exec);

  Run(engine, "products that were ever ordered (semijoin)",
      "select p.pname from p in PRODUCTS "
      "where exists o in ORDERS : o.sku = p.sku");

  Run(engine, "products never ordered (antijoin)",
      "select p.pname from p in PRODUCTS "
      "where not exists o in ORDERS : o.sku = p.sku");

  Run(engine, "per-product order book (nestjoin, dangling kept)",
      "select (pname = p.pname, n_orders = count(Os), "
      "        total_qty = sum(select o.qty from o in Os)) "
      "from p in PRODUCTS "
      "with Os = select o from o in ORDERS where o.sku = p.sku");

  Run(engine, "expensive products ordered in the EU (join + pushdown)",
      "select (pname = p.pname, order_id = o.order_id) "
      "from p in PRODUCTS, o in ORDERS "
      "where p.sku = o.sku and p.price > 25 and o.region = \"EU\"");

  Run(engine, "categories whose every product was ordered (universal)",
      "select c.category from c in PRODUCTS where "
      "forall p in PRODUCTS : not (p.category = c.category) or "
      "(exists o in ORDERS : o.sku = p.sku)");

  return 0;
}
